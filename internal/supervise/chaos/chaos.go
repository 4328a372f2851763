// Package chaos is the randomized-but-reproducible fault harness for
// the supervision layer. One integer seed determines an entire
// scenario — which workload runs, which operations fail with which
// probabilities, what budgets apply, how many retries are allowed — so
// any failing case replays exactly from its seed.
//
// Every executed case must satisfy the robustness invariants the ISSUE
// pins:
//
//  1. the run TERMINATES, in success or in a typed runctl error —
//     never a bare error, never a hang, never a panic;
//  2. on success the output is byte-identical to the fault-free,
//     limit-free golden run (determinism survives arbitrary
//     interrupt/retry/resume schedules);
//  3. no goroutines leak (asserted by the test driver around batches).
//
// Fault injection covers query evaluation, node materialization and
// formula evaluation through runctl.FaultPlan, and the serialization
// path through a faulty io.Writer wrapper that participates in the same
// plan (runctl.OpSerialize).
package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"time"

	"ptx/internal/families"
	"ptx/internal/pt"
	"ptx/internal/registrar"
	"ptx/internal/relation"
	"ptx/internal/runctl"
	"ptx/internal/supervise"
)

// Workload pairs a transducer with an instance it runs on.
type Workload struct {
	Name string
	Tr   *pt.Transducer
	Inst *relation.Instance
}

// Workloads returns the chaos corpus: the registrar example views plus
// the Proposition 1 blowup families at tame sizes.
func Workloads() []Workload {
	pc := relation.NewInstance(families.PathCountSchema())
	pc.Add("S", "s")
	pc.Add("T", "t")
	pc.Add("R", "s", "m1")
	pc.Add("R", "s", "m2")
	pc.Add("R", "m1", "t")
	pc.Add("R", "m2", "t")
	return []Workload{
		{"tau1/sample", registrar.Tau1(), registrar.SampleInstance()},
		{"tau3/sample", registrar.Tau3(), registrar.SampleInstance()},
		{"unfold/d4", families.UnfoldTransducer(), families.DiamondChain(4)},
		{"unfold/d6", families.UnfoldTransducer(), families.DiamondChain(6)},
		{"counter/n1", families.CounterTransducer(), families.CounterInstance(1)},
		{"counter/n2", families.CounterTransducer(), families.CounterInstance(2)},
		{"pathcount", families.PathCountTransducer(), pc},
	}
}

// Case is one fully-determined chaos scenario.
type Case struct {
	Seed     int64
	Workload string
	Probs    map[runctl.Op]float64
	Limits   runctl.Limits
	Cache    pt.CacheMode
	Retries  int
	// CheckpointEvery > 0 takes periodic snapshots mid-run, exercising
	// the deep-copy capture path under faults.
	CheckpointEvery int64
	// EncodeHop routes recovery through the full snapshot
	// Encode/Decode/Verify path between attempts instead of resuming
	// in memory.
	EncodeHop bool
}

// NewCase derives a scenario from a seed. Fault probabilities are kept
// small enough that most cases can succeed within their retry budget,
// and every parameter draw comes from the seeded PRNG only, so the
// mapping seed→case is stable across runs and platforms.
func NewCase(seed int64, workloads []Workload) Case {
	rng := rand.New(rand.NewSource(seed))
	c := Case{
		Seed:     seed,
		Workload: workloads[rng.Intn(len(workloads))].Name,
		Probs:    map[runctl.Op]float64{},
		Cache:    pt.CacheMode(rng.Intn(2)), // CacheOff or CacheQueries
		Retries:  4 + rng.Intn(8),
	}
	for _, op := range runctl.Ops() {
		if rng.Float64() < 0.5 {
			c.Probs[op] = 0.002 * float64(1+rng.Intn(10))
		}
	}
	switch rng.Intn(4) {
	case 0:
		c.Limits.MaxQueries = 20 + rng.Intn(200)
	case 1:
		c.Limits.MaxNodes = 20 + rng.Intn(200)
	}
	if rng.Intn(4) == 0 {
		c.CheckpointEvery = int64(1 + rng.Intn(20))
	}
	c.EncodeHop = rng.Intn(2) == 0
	return c
}

// Outcome reports what a case did.
type Outcome struct {
	Case     Case
	Success  bool
	Err      error // terminal error (typed), nil on success
	Attempts int
	Ops      int64
	// Snapshot is the last checkpoint the supervision loop captured,
	// for artifact upload on invariant violations.
	Snapshot *supervise.Snapshot
}

// golden caches the fault-free, limit-free canonical output per
// workload; it is the oracle every successful chaos run must match.
var golden sync.Map // workload name -> string

func goldenFor(w Workload) (string, error) {
	if s, ok := golden.Load(w.Name); ok {
		return s.(string), nil
	}
	res, err := w.Tr.Run(w.Inst, pt.Options{})
	if err != nil {
		return "", fmt.Errorf("golden run for %s: %w", w.Name, err)
	}
	var sb strings.Builder
	if err := res.Xi.WriteCanonicalVirtual(&sb, w.Tr.Virtual); err != nil {
		return "", fmt.Errorf("golden serialize for %s: %w", w.Name, err)
	}
	golden.Store(w.Name, sb.String())
	return sb.String(), nil
}

// typed reports whether err is one of the runctl error types (or
// transient-wrapped); bare errors violate invariant 1.
func typed(err error) bool {
	var (
		budget   *runctl.ErrBudget
		canceled *runctl.ErrCanceled
		internal *runctl.ErrInternal
	)
	return runctl.IsTransient(err) ||
		errors.As(err, &budget) || errors.As(err, &canceled) || errors.As(err, &internal)
}

// faultyWriter participates in the case's fault plan on the
// serialization path: every Write is one OpSerialize operation.
type faultyWriter struct {
	w    io.Writer
	plan *runctl.FaultPlan
}

func (f *faultyWriter) Write(p []byte) (int, error) {
	if err := f.plan.Check(runctl.OpSerialize); err != nil {
		return 0, err
	}
	return f.w.Write(p)
}

// Execute runs one case and checks the terminal-state invariants. The
// returned error is non-nil ONLY for an invariant violation; expected
// failures (typed errors after exhausted retries) are reported in the
// Outcome with a nil error.
func Execute(ctx context.Context, c Case) (*Outcome, error) {
	var w Workload
	for _, cand := range Workloads() {
		if cand.Name == c.Workload {
			w = cand
			break
		}
	}
	if w.Tr == nil {
		return nil, fmt.Errorf("case %d names unknown workload %q", c.Seed, c.Workload)
	}
	want, err := goldenFor(w)
	if err != nil {
		return nil, err
	}

	plan := runctl.SeededPlan(c.Seed, runctl.Transient(fmt.Errorf("chaos fault (seed %d)", c.Seed)), c.Probs)
	out := &Outcome{Case: c}

	opts := supervise.Options{
		Run: pt.Options{
			Cache:  c.Cache,
			Limits: &c.Limits,
			Faults: plan,
		},
		Retries:         c.Retries,
		Checkpoint:      true,
		CheckpointEvery: c.CheckpointEvery,
		Sleep:           func(time.Duration) {}, // schedules are deterministic; never actually wait
	}

	res, rep, runErr := runCase(ctx, w, opts, c)
	out.Attempts, out.Ops, out.Snapshot = rep.Attempts, rep.Ops, rep.Snapshot
	if runErr != nil {
		out.Err = runErr
		if !typed(runErr) {
			return out, fmt.Errorf("case %d (%s): terminal error is not runctl-typed: %v", c.Seed, c.Workload, runErr)
		}
		return out, nil
	}

	// Serialization under OpSerialize faults: transient write errors are
	// retried like any other transient failure; determinism means a
	// re-serialization of the same tree is byte-identical.
	var text string
	serErr := errors.New("unreached")
	for attempt := 0; attempt <= c.Retries && serErr != nil; attempt++ {
		var sb strings.Builder
		serErr = res.Xi.WriteCanonicalVirtual(&faultyWriter{w: &sb, plan: plan}, w.Tr.Virtual)
		if serErr == nil {
			text = sb.String()
		}
	}
	if serErr != nil {
		out.Err = serErr
		if !typed(serErr) {
			return out, fmt.Errorf("case %d (%s): serialize error is not typed: %v", c.Seed, c.Workload, serErr)
		}
		return out, nil
	}

	out.Success = true
	if text != want {
		return out, fmt.Errorf("case %d (%s): successful run's output differs from golden (%d vs %d bytes)",
			c.Seed, c.Workload, len(text), len(want))
	}
	return out, nil
}

// runCase drives the supervision loop, optionally hopping through the
// serialized snapshot format between attempts.
func runCase(ctx context.Context, w Workload, opts supervise.Options, c Case) (*pt.Result, *supervise.Report, error) {
	if !c.EncodeHop {
		return supervise.Run(ctx, w.Tr, w.Inst, opts)
	}
	// Encode-hop mode: let the loop fail one attempt at a time
	// (Retries=0), round-trip the failure checkpoint through the text
	// format, and resume from the decoded snapshot — the cross-process
	// recovery story, compressed into one process.
	single := opts
	single.Retries = 0
	res, rep, err := supervise.Run(ctx, w.Tr, w.Inst, single)
	total := &supervise.Report{Attempts: rep.Attempts, Ops: rep.Ops, Errs: rep.Errs, Snapshot: rep.Snapshot}
	for attempt := 1; err != nil && attempt <= c.Retries && supervise.Retryable(err) && rep.Snapshot != nil; attempt++ {
		var buf strings.Builder
		if encErr := rep.Snapshot.Encode(&buf); encErr != nil {
			return nil, total, fmt.Errorf("chaos: encoding checkpoint: %w", encErr)
		}
		snap, decErr := supervise.DecodeSnapshot(strings.NewReader(buf.String()))
		if decErr != nil {
			return nil, total, fmt.Errorf("chaos: decoding checkpoint: %w", decErr)
		}
		res, rep, err = supervise.Resume(ctx, w.Tr, w.Inst, snap, single)
		total.Attempts += rep.Attempts
		total.Ops += rep.Ops
		total.Errs = append(total.Errs, rep.Errs...)
		if rep.Snapshot != nil {
			total.Snapshot = rep.Snapshot
		}
	}
	return res, total, err
}
