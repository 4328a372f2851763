package supervise_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/bits"
	"runtime"
	"strings"
	"testing"
	"time"

	"ptx/internal/eval"
	"ptx/internal/families"
	"ptx/internal/pt"
	"ptx/internal/registrar"
	"ptx/internal/relation"
	"ptx/internal/runctl"
	"ptx/internal/supervise"
	"ptx/internal/testutil"
)

func workloads() map[string]struct {
	tr   *pt.Transducer
	inst *relation.Instance
} {
	return map[string]struct {
		tr   *pt.Transducer
		inst *relation.Instance
	}{
		"tau1/sample": {registrar.Tau1(), registrar.SampleInstance()},
		"tau3/sample": {registrar.Tau3(), registrar.SampleInstance()},
		"unfold/d6":   {families.UnfoldTransducer(), families.DiamondChain(6)},
		"counter/n2":  {families.CounterTransducer(), families.CounterInstance(2)},
	}
}

func canonical(t *testing.T, tr *pt.Transducer, res *pt.Result) string {
	t.Helper()
	var sb strings.Builder
	if err := res.Xi.WriteCanonicalVirtual(&sb, tr.Virtual); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return sb.String()
}

// noSleep makes retries instantaneous while recording the schedule.
func noSleep(delays *[]time.Duration) func(time.Duration) {
	return func(d time.Duration) { *delays = append(*delays, d) }
}

// TestSupervisedMatchesRun: the happy path through supervision is
// byte-identical to the plain runner.
func TestSupervisedMatchesRun(t *testing.T) {
	for name, w := range workloads() {
		t.Run(name, func(t *testing.T) {
			golden, err := w.tr.Run(w.inst, pt.Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, rep, err := supervise.Run(context.Background(), w.tr, w.inst, supervise.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Attempts != 1 || len(rep.Errs) != 0 {
				t.Errorf("clean run: attempts=%d errs=%v", rep.Attempts, rep.Errs)
			}
			if canonical(t, w.tr, res) != canonical(t, w.tr, golden) {
				t.Error("supervised output differs from Run")
			}
		})
	}
}

// TestSnapshotResumeDifferential is the ISSUE acceptance criterion at
// the supervise layer: interrupt at the k-th operation (sweep of k),
// serialize the checkpoint through the full Encode/Decode path, resume,
// and require canonical bytes identical to the uninterrupted run —
// across cache modes and worker counts.
func TestSnapshotResumeDifferential(t *testing.T) {
	for name, w := range workloads() {
		t.Run(name, func(t *testing.T) {
			golden, err := w.tr.Run(w.inst, pt.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := canonical(t, w.tr, golden)

			probe, err := w.tr.NewStepRun(context.Background(), w.inst, pt.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := probe.Run(); err != nil {
				t.Fatal(err)
			}
			total := int(probe.Ops())
			probe.Close()

			for _, cfg := range []pt.Options{
				{},
				{Cache: pt.CacheQueries},
			} {
				for k := 0; k < total; k += 1 + total/8 {
					sr, err := w.tr.NewStepRun(context.Background(), w.inst, cfg)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < k; i++ {
						if _, err := sr.Step(); err != nil {
							t.Fatalf("k=%d: %v", k, err)
						}
					}
					snap := supervise.Capture(w.tr, w.inst, sr)
					sr.Close()

					var buf bytes.Buffer
					if err := snap.Encode(&buf); err != nil {
						t.Fatalf("k=%d encode: %v", k, err)
					}
					decoded, err := supervise.DecodeSnapshot(bytes.NewReader(buf.Bytes()))
					if err != nil {
						t.Fatalf("k=%d decode: %v", k, err)
					}
					res, rep, err := supervise.Resume(context.Background(), w.tr, w.inst, decoded, supervise.Options{Run: cfg})
					if err != nil {
						t.Fatalf("k=%d resume: %v", k, err)
					}
					if rep.Attempts != 1 {
						t.Errorf("k=%d: resume took %d attempts", k, rep.Attempts)
					}
					if got := canonical(t, w.tr, res); got != want {
						t.Errorf("k=%d cfg=%+v: resumed output differs from uninterrupted run", k, cfg)
					}
					if res.Stats.Nodes != golden.Stats.Nodes {
						t.Errorf("k=%d: resumed Nodes=%d, want %d", k, res.Stats.Nodes, golden.Stats.Nodes)
					}
				}
			}
		})
	}
}

// TestSnapshotRoundTripStable: encode→decode→encode is byte-stable, so
// checkpoints can themselves be fingerprinted and diffed.
func TestSnapshotRoundTripStable(t *testing.T) {
	tr, inst := registrar.Tau1(), registrar.SampleInstance()
	sr, err := tr.NewStepRun(context.Background(), inst, pt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	for i := 0; i < 3; i++ {
		if _, err := sr.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap := supervise.Capture(tr, inst, sr)
	var a, b bytes.Buffer
	if err := snap.Encode(&a); err != nil {
		t.Fatal(err)
	}
	decoded, err := supervise.DecodeSnapshot(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := decoded.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("snapshot encoding is not round-trip stable")
	}
}

// TestSelfHealingBudget: no single MaxQueries budget completes the run,
// but attempts accumulate progress, so supervision converges to the
// exact golden bytes.
func TestSelfHealingBudget(t *testing.T) {
	tr := families.UnfoldTransducer()
	inst := families.DiamondChain(5)
	golden, err := tr.Run(inst, pt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if golden.Stats.QueriesRun <= 10 {
		t.Fatalf("workload too small: %d queries", golden.Stats.QueriesRun)
	}
	// Each attempt completes ~MaxQueries more steps before tripping, so
	// ceil(total/10)+slack attempts always suffice.
	retries := golden.Stats.QueriesRun/10 + 10
	var delays []time.Duration
	res, rep, err := supervise.Run(context.Background(), tr, inst, supervise.Options{
		Run:     pt.Options{Limits: &runctl.Limits{MaxQueries: 10}},
		Retries: retries,
		Sleep:   noSleep(&delays),
	})
	if err != nil {
		t.Fatalf("self-healing run failed: %v (attempts=%d)", err, rep.Attempts)
	}
	if rep.Attempts < 2 {
		t.Fatalf("expected multiple attempts, got %d", rep.Attempts)
	}
	if canonical(t, tr, res) != canonical(t, tr, golden) {
		t.Error("self-healed output differs from golden")
	}
	for _, e := range rep.Errs {
		var be *runctl.ErrBudget
		if !errors.As(e, &be) {
			t.Errorf("intermediate error not a budget error: %v", e)
		}
	}
}

// TestTransientFaultRetried: an Nth-op fault wrapped Transient fires
// once; the retry resumes from the failure frontier and succeeds.
func TestTransientFaultRetried(t *testing.T) {
	tr := families.UnfoldTransducer()
	inst := families.DiamondChain(6)
	golden, err := tr.Run(inst, pt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := &runctl.FaultPlan{Op: runctl.OpQuery, N: 7, Err: runctl.Transient(errors.New("blip"))}
	var delays []time.Duration
	res, rep, err := supervise.Run(context.Background(), tr, inst, supervise.Options{
		Run:     pt.Options{Faults: plan},
		Retries: 2,
		Sleep:   noSleep(&delays),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 2 || len(rep.Errs) != 1 || len(delays) != 1 {
		t.Fatalf("attempts=%d errs=%d delays=%d, want 2/1/1", rep.Attempts, len(rep.Errs), len(delays))
	}
	if !runctl.IsTransient(rep.Errs[0]) {
		t.Errorf("recorded error lost its transient marker: %v", rep.Errs[0])
	}
	if canonical(t, tr, res) != canonical(t, tr, golden) {
		t.Error("retried output differs from golden")
	}
}

// TestPermanentErrorNotRetried: an unmarked fault error fails fast.
func TestPermanentErrorNotRetried(t *testing.T) {
	tr := families.UnfoldTransducer()
	inst := families.DiamondChain(6)
	boom := errors.New("permanent")
	plan := &runctl.FaultPlan{Op: runctl.OpQuery, N: 3, Err: boom}
	_, rep, err := supervise.Run(context.Background(), tr, inst, supervise.Options{
		Run:     pt.Options{Faults: plan},
		Retries: 5,
		Sleep:   func(time.Duration) { t.Error("slept before a permanent error") },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the injected permanent error", err)
	}
	if rep.Attempts != 1 {
		t.Errorf("permanent error retried: %d attempts", rep.Attempts)
	}
}

// TestCancellationNotRetried: explicit cancellation is an instruction
// to stop, not a fault to heal.
func TestCancellationNotRetried(t *testing.T) {
	tr := families.CounterTransducer()
	inst := families.CounterInstance(6) // effectively unbounded
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, rep, err := supervise.Run(ctx, tr, inst, supervise.Options{Retries: 5})
	var ce *runctl.ErrCanceled
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *runctl.ErrCanceled", err)
	}
	if rep.Attempts != 1 {
		t.Errorf("cancellation retried: %d attempts", rep.Attempts)
	}
}

// TestDeadlineRetriedWithFreshBudget: per-attempt wall-clock budgets
// are fresh, so a deadline small enough to interrupt but large enough
// to make progress eventually completes the run.
func TestDeadlineRetriedWithFreshBudget(t *testing.T) {
	tr := families.UnfoldTransducer()
	inst := families.DiamondChain(8)
	golden, err := tr.Run(inst, pt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var delays []time.Duration
	res, rep, err := supervise.Run(context.Background(), tr, inst, supervise.Options{
		Run:     pt.Options{Limits: &runctl.Limits{Timeout: 30 * time.Millisecond}},
		Retries: 200,
		Sleep:   noSleep(&delays),
	})
	if err != nil {
		t.Fatalf("deadline self-healing failed after %d attempts: %v", rep.Attempts, err)
	}
	if canonical(t, tr, res) != canonical(t, tr, golden) {
		t.Error("output differs from golden")
	}
}

// TestBackoffDeterministic: the same seed yields the same jittered
// schedule; growth is capped at Max.
func TestBackoffDeterministic(t *testing.T) {
	run := func(seed int64) []time.Duration {
		tr := families.UnfoldTransducer()
		inst := families.DiamondChain(4)
		plan := runctl.SeededPlan(1, runctl.Transient(errors.New("blip")), map[runctl.Op]float64{runctl.OpQuery: 0.4})
		var delays []time.Duration
		supervise.Run(context.Background(), tr, inst, supervise.Options{
			Run:     pt.Options{Faults: plan},
			Retries: 30,
			Backoff: supervise.Backoff{Base: time.Millisecond, Max: 16 * time.Millisecond, Factor: 2, Jitter: 0.5, Seed: seed},
			Sleep:   noSleep(&delays),
		})
		return delays
	}
	a, b := run(42), run(42)
	if len(a) == 0 {
		t.Fatal("no retries happened; fault plan too weak")
	}
	if len(a) != len(b) {
		t.Fatalf("schedules differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delay %d differs: %v vs %v", i, a[i], b[i])
		}
		if a[i] > 24*time.Millisecond { // Max plus full jitter
			t.Fatalf("delay %d = %v exceeds cap+jitter", i, a[i])
		}
	}
	if c := run(43); len(c) == len(a) {
		same := true
		for i := range c {
			if c[i] != a[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical jitter schedules")
		}
	}
}

// TestRetriesKeepCallerOptions: every attempt runs the caller's
// options unchanged — with every query failing, each of the 5 attempts
// still consults the caller's memo (its miss count grows during every
// attempt), because the memo never stores a failed evaluation and so
// is never a reason to retry without it.
func TestRetriesKeepCallerOptions(t *testing.T) {
	tr := families.UnfoldTransducer()
	inst := families.DiamondChain(6)
	plan := runctl.SeededPlan(7, runctl.Transient(errors.New("blip")), map[runctl.Op]float64{runctl.OpQuery: 1})
	memo := eval.NewMemo(0)
	misses := func() int64 { _, m, _ := memo.Stats(); return m }
	var after []int64 // memo misses at the end of each attempt
	var delays []time.Duration
	_, rep, err := supervise.Run(context.Background(), tr, inst, supervise.Options{
		Run:     pt.Options{Cache: pt.CacheQueries, Memo: memo, Faults: plan},
		Retries: 4,
		Sleep:   noSleep(&delays),
		OnRetry: func(attempt int, err error) { after = append(after, misses()) },
	})
	if err == nil {
		t.Fatal("run with p=1 query faults succeeded")
	}
	after = append(after, misses())
	if rep.Attempts != 5 || len(after) != 5 {
		t.Fatalf("attempts=%d observed=%d, want 5/5", rep.Attempts, len(after))
	}
	prev := int64(0)
	for i, m := range after {
		if m <= prev {
			t.Errorf("attempt %d did not consult the caller's memo: misses %d → %d", i+1, prev, m)
		}
		prev = m
	}
}

// TestFailureCheckpointResumable: Options.Checkpoint captures the
// failure frontier; resuming it completes to the golden bytes.
func TestFailureCheckpointResumable(t *testing.T) {
	tr := families.UnfoldTransducer()
	inst := families.DiamondChain(6)
	golden, err := tr.Run(inst, pt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("permanent")
	plan := &runctl.FaultPlan{Op: runctl.OpQuery, N: 9, Err: boom}
	_, rep, err := supervise.Run(context.Background(), tr, inst, supervise.Options{
		Run:        pt.Options{Faults: plan},
		Checkpoint: true,
	})
	if !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if rep.Snapshot == nil {
		t.Fatal("no failure checkpoint captured")
	}
	var buf bytes.Buffer
	if err := rep.Snapshot.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := supervise.DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := supervise.Resume(context.Background(), tr, inst, snap, supervise.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if canonical(t, tr, res) != canonical(t, tr, golden) {
		t.Error("resumed-from-failure output differs from golden")
	}
}

// TestVerifyRejectsMismatch: a snapshot must not resume against a
// different transducer or instance.
func TestVerifyRejectsMismatch(t *testing.T) {
	tr, inst := registrar.Tau1(), registrar.SampleInstance()
	sr, err := tr.NewStepRun(context.Background(), inst, pt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	snap := supervise.Capture(tr, inst, sr)
	if _, _, err := supervise.Resume(context.Background(), registrar.Tau3(), inst, snap, supervise.Options{}); err == nil {
		t.Error("resume against a different transducer accepted")
	}
	if _, _, err := supervise.Resume(context.Background(), tr, registrar.ChainInstance(3), snap, supervise.Options{}); err == nil {
		t.Error("resume against a different instance accepted")
	}
}

// TestDecodeRejectsCorruption: structural validation on decode.
func TestDecodeRejectsCorruption(t *testing.T) {
	tr, inst := registrar.Tau1(), registrar.SampleInstance()
	sr, err := tr.NewStepRun(context.Background(), inst, pt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	var buf bytes.Buffer
	if err := supervise.Capture(tr, inst, sr).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	// A node with two parents, re-signed so that only the structural
	// checks stand between it and a successful decode.
	payload := good[:strings.Index(good, "sum ")]
	shared := strings.Replace(payload, "nodes 1\nn \"db\" \"q0\" \"\" 0 0 0\n",
		"nodes 3\nn \"a\" \"q\" \"\" 0 0 0\nn \"b\" \"\" \"\" -1 0 1 0\nn \"db\" \"\" \"\" 0 0 2 0 1\n", 1)
	if shared == payload {
		t.Fatal("shared-node mutation did not apply")
	}
	sign := func(payload string) string {
		sum := sha256.Sum256([]byte(payload))
		return payload + "sum " + hex.EncodeToString(sum[:]) + "\nend\n"
	}
	shared = sign(shared)

	mutations := map[string]string{
		"bad magic":     strings.Replace(good, "ptx-checkpoint 3", "ptx-checkpoint 9", 1),
		"v2 file":       sign(strings.Replace(payload, "ptx-checkpoint 3", "ptx-checkpoint 2", 1)),
		"truncated":     good[:len(good)/2],
		"no end marker": strings.TrimSuffix(good, "end\n"),
		"negative node": strings.Replace(good, "nodes 1", "nodes -1", 1),
		"shared node":   shared,
	}
	for name, bad := range mutations {
		_, err := supervise.DecodeSnapshot(strings.NewReader(bad))
		var se *supervise.SnapshotError
		if !errors.As(err, &se) {
			t.Errorf("%s: decode returned %v, want a *SnapshotError", name, err)
		}
	}
	// Forward/undefined node references must be rejected (cycle guard).
	fwd := strings.Replace(good, "pending 1\np 0 ", "pending 1\np 7 ", 1)
	if _, err := supervise.DecodeSnapshot(strings.NewReader(fwd)); err == nil {
		t.Error("decode accepted out-of-range pending reference")
	}
}

// TestPeriodicCheckpoints: CheckpointEvery leaves a recent snapshot in
// the report even on success.
func TestPeriodicCheckpoints(t *testing.T) {
	tr := families.UnfoldTransducer()
	inst := families.DiamondChain(6)
	_, rep, err := supervise.Run(context.Background(), tr, inst, supervise.Options{CheckpointEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Snapshot == nil {
		t.Fatal("no periodic snapshot captured")
	}
	if err := rep.Snapshot.Verify(tr, inst); err != nil {
		t.Error(err)
	}
}

// TestCheckpointCadenceDoubles: periodic snapshots come after
// CheckpointEvery steps, then 2×, 4× and so on, so a run of ops steps
// takes ⌊log₂(ops/every)⌋+1 of them, not ops/every.
func TestCheckpointCadenceDoubles(t *testing.T) {
	tr := families.UnfoldTransducer()
	inst := families.DiamondChain(6)
	for _, every := range []int64{1, 3, 5, 64} {
		var calls int
		_, rep, err := supervise.Run(context.Background(), tr, inst, supervise.Options{
			CheckpointEvery: every,
			OnCheckpoint:    func(*supervise.Snapshot) error { calls++; return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		want := bits.Len64(uint64(rep.Ops / every))
		if calls != want {
			t.Errorf("every %d over %d steps: %d checkpoints, want %d", every, rep.Ops, calls, want)
		}
	}
}

// TestSupervisedNoGoroutineLeaks: faulted, retried and timed-out
// supervised runs leave no goroutines behind.
func TestSupervisedNoGoroutineLeaks(t *testing.T) {
	tr := families.UnfoldTransducer()
	inst := families.DiamondChain(6)
	base := runtime.NumGoroutine()
	var delays []time.Duration
	for seed := int64(0); seed < 8; seed++ {
		plan := runctl.SeededPlan(seed, runctl.Transient(errors.New("blip")), map[runctl.Op]float64{runctl.OpQuery: 0.2})
		supervise.Run(context.Background(), tr, inst, supervise.Options{
			Run:     pt.Options{Faults: plan, Limits: &runctl.Limits{Timeout: 50 * time.Millisecond}},
			Retries: 3,
			Sleep:   noSleep(&delays),
		})
	}
	testutil.SettledGoroutines(t, base)
}
