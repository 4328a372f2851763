// Package supervise wraps the transducer runner in a self-healing
// supervision loop: attempts run stepwise (internal/pt.StepRun) so that
// any failure — timeout, budget, injected fault, contained panic —
// leaves a consistent (tree, frontier) checkpoint; transient failures
// are retried with capped exponential backoff, every attempt under the
// caller's options; and progress carries FORWARD across attempts, so
// a sequence of budget-bounded attempts completes work no single budget
// allows. Checkpoints serialize (snapshot.go) and resume across
// processes with the same byte-for-byte output guarantee.
package supervise

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"ptx/internal/pt"
	"ptx/internal/relation"
	"ptx/internal/runctl"
	"ptx/internal/xmltree"
)

// Backoff shapes the delay between attempts: capped exponential with
// deterministic seeded jitter, so a whole retry schedule is
// reproducible from one integer (the same discipline FaultPlan uses for
// fault schedules).
type Backoff struct {
	Base   time.Duration // first delay; default 10ms
	Max    time.Duration // cap; default 2s
	Factor float64       // growth per attempt; default 2
	Jitter float64       // ± fraction of the delay; default 0 (none)
	Seed   int64         // jitter PRNG seed
}

// rng returns the jitter PRNG, seeding it on the first retry: its
// state is a few KB, which a run that never retries should not pay for.
func (b Backoff) rng(r *rand.Rand) *rand.Rand {
	if r == nil {
		r = rand.New(rand.NewSource(b.Seed))
	}
	return r
}

// delay returns the wait before retry number n (1-based).
func (b Backoff) delay(n int, rng *rand.Rand) time.Duration {
	base, max, factor := b.Base, b.Max, b.Factor
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	if factor < 1 {
		factor = 2
	}
	d := float64(base)
	for i := 1; i < n; i++ {
		d *= factor
		if d >= float64(max) {
			break
		}
	}
	if d > float64(max) {
		d = float64(max)
	}
	if j := b.Jitter; j > 0 {
		if j > 1 {
			j = 1
		}
		d *= 1 + j*(2*rng.Float64()-1)
	}
	return time.Duration(d)
}

// Options configures a supervised run.
type Options struct {
	// Run is the per-attempt transducer configuration. Budgets are FRESH
	// each attempt (progress accumulates, so repeated bounded attempts
	// converge).
	Run pt.Options

	// Retries is the number of retries after the first attempt; 0 means
	// fail on the first error.
	Retries int

	// Backoff shapes the inter-attempt delay.
	Backoff Backoff

	// Checkpoint captures a Snapshot of the failure frontier into
	// Report.Snapshot whenever an attempt fails, so callers can persist
	// it and Resume later (possibly in another process).
	Checkpoint bool

	// CheckpointEvery additionally captures a snapshot after N completed
	// steps of an attempt, then after 2N, 4N and so on (0 disables).
	// Each snapshot deep-copies the tree, so the doubling cadence keeps
	// their total cost within about twice the final tree's, and a kill
	// loses at most half of an attempt's steps.
	CheckpointEvery int64

	// OnCheckpoint, when set, observes every periodic snapshot as it is
	// captured — the hook a clustered server uses to persist progress
	// into a shared CheckpointStore mid-run. A non-nil return ABORTS the
	// attempt with that error: a store that rejects the write with
	// *ErrFenced is telling this node it lost ownership of the run, and
	// continuing would only burn cycles on a result nobody will accept.
	// Fencing errors are permanent (not Retryable), so the supervision
	// loop stops rather than retrying into the same fence.
	OnCheckpoint func(*Snapshot) error

	// Sleep replaces time.Sleep between attempts (tests and chaos runs
	// pass a recorder so schedules are checked without waiting).
	Sleep func(time.Duration)

	// OnRetry, when set, observes each retry decision: the attempt that
	// failed (1-based) and its error.
	OnRetry func(attempt int, err error)
}

// Report describes what the supervision loop did, whether or not it
// succeeded.
type Report struct {
	// Attempts is the number of attempts started (≥1).
	Attempts int
	// Ops is the total number of completed steps across all attempts.
	Ops int64
	// Errs holds each failed attempt's error in order; on overall
	// success its length is Attempts-1.
	Errs []error
	// Snapshot is the most recent checkpoint captured (failure-time when
	// Options.Checkpoint is set, else the last periodic one); nil when
	// none was taken.
	Snapshot *Snapshot
}

// Retryable classifies an error for the supervision loop: true means a
// fresh attempt may succeed. Budget exhaustion is retryable because
// attempts get fresh budgets while progress accumulates; deadline
// expiry likewise. Explicit cancellation is an instruction to stop, and
// anything untyped (spec bugs, validation failures) is permanent.
// Internal errors (contained panics) are retryable: injected internal
// faults fire per attempt, so the attempt that re-runs the failed step
// can succeed.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if runctl.IsTransient(err) {
		return true
	}
	var budget *runctl.ErrBudget
	if errors.As(err, &budget) {
		return true
	}
	var canceled *runctl.ErrCanceled
	if errors.As(err, &canceled) {
		return errors.Is(canceled.Cause, context.DeadlineExceeded)
	}
	var internal *runctl.ErrInternal
	return errors.As(err, &internal)
}

// Run executes tr on inst under supervision and returns the final
// result. Every attempt runs o.Run unchanged: the query memo never
// stores a failed evaluation, so a retry has no cache to distrust. The
// Report is non-nil in every case, including errors.
func Run(ctx context.Context, tr *pt.Transducer, inst *relation.Instance, o Options) (*pt.Result, *Report, error) {
	return loop(ctx, tr, inst, o, nil)
}

// Resume continues a checkpointed run. The snapshot is verified against
// tr and inst first; budgets in o.Run are fresh for the resumed
// attempt. The combined output is byte-identical to an uninterrupted
// run's. The Report is non-nil in every case, including errors.
func Resume(ctx context.Context, tr *pt.Transducer, inst *relation.Instance, snap *Snapshot, o Options) (*pt.Result, *Report, error) {
	if snap == nil {
		return nil, &Report{}, errors.New("supervise: nil snapshot")
	}
	if err := snap.Verify(tr, inst); err != nil {
		return nil, &Report{}, err
	}
	return loop(ctx, tr, inst, o, snap)
}

// Retry applies the supervision retry policy — transient
// classification, capped seeded backoff — to f, which receives the
// 1-based attempt number; the returned attempt count is how many times
// f ran. A failed attempt is retried only while retries remain, its
// error is Retryable and ctx is live, and onRetry (when set) observes
// exactly those decisions, with the failed attempt and its error,
// before the backoff.
func Retry(ctx context.Context, retries int, b Backoff, sleep func(time.Duration), onRetry func(attempt int, err error), f func(attempt int) error) (int, error) {
	if sleep == nil {
		sleep = time.Sleep
	}
	var rng *rand.Rand
	for attempt := 1; ; attempt++ {
		err := f(attempt)
		if err == nil {
			return attempt, nil
		}
		if attempt > retries || !Retryable(err) || (ctx != nil && ctx.Err() != nil) {
			return attempt, err
		}
		if onRetry != nil {
			onRetry(attempt, err)
		}
		rng = b.rng(rng)
		sleep(b.delay(attempt, rng))
	}
}

// loop is the supervision engine shared by Run and Resume: each Retry
// attempt steps one run, and a failed attempt's frontier becomes the
// next attempt's starting point.
func loop(ctx context.Context, tr *pt.Transducer, inst *relation.Instance, o Options, snap *Snapshot) (*pt.Result, *Report, error) {
	rep := &Report{}
	var root *xmltree.Node
	var pending []pt.PendingConfig
	var prior pt.Stats
	restored := snap != nil
	if restored {
		root, pending, prior = snap.Tree.Root, snap.Pending, snap.Stats
	}
	var res *pt.Result
	var err error
	c := &capturer{tr: tr, inst: inst}
	rep.Attempts, err = Retry(ctx, o.Retries, o.Backoff, o.Sleep, o.OnRetry, func(int) error {
		var sr *pt.StepRun
		var err error
		if restored {
			sr, err = tr.RestoreStepRun(ctx, inst, o.Run, root, pending, prior)
		} else {
			sr, err = tr.NewStepRun(ctx, inst, o.Run)
		}
		if err != nil {
			// Setup failures (invalid spec, malformed frontier) are
			// permanent: untyped, so Retry does not retry them.
			return err
		}
		var runErr error
		res, runErr = drive(sr, o, rep, c)
		rep.Ops += sr.Ops()
		if runErr == nil {
			sr.Close()
			return nil
		}
		rep.Errs = append(rep.Errs, runErr)

		// Atomic steps mean the failed run's (tree, frontier) is exactly
		// the remaining work; carry it into the next attempt.
		root = sr.Tree().Root
		pending = sr.Pending()
		prior = sr.StatsSoFar()
		restored = true
		if o.Checkpoint {
			rep.Snapshot = c.capture(sr)
		}
		sr.Close()
		return runErr
	})
	if err != nil {
		return nil, rep, err
	}
	return res, rep, nil
}

// drive steps one attempt to completion, taking periodic checkpoints
// at a doubling cadence (Options.CheckpointEvery).
func drive(sr *pt.StepRun, o Options, rep *Report, c *capturer) (*pt.Result, error) {
	next := o.CheckpointEvery
	for !sr.Done() {
		if _, err := sr.Step(); err != nil {
			return nil, err
		}
		if next > 0 && sr.Ops() >= next {
			next *= 2
			rep.Snapshot = c.capture(sr)
			if o.OnCheckpoint != nil {
				if err := o.OnCheckpoint(rep.Snapshot); err != nil {
					return nil, err
				}
			}
		}
	}
	return sr.Result()
}
