// Run-control acceptance tests for the pt layer. These live in an
// external test package so they can drive the real divergent workloads
// from internal/families (which itself imports pt).
package pt_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"ptx/internal/families"
	"ptx/internal/pt"
	"ptx/internal/runctl"
	"ptx/internal/testutil"
)

// settledGoroutines is the shared leak assertion (internal/testutil),
// kept under its historical local name.
func settledGoroutines(t *testing.T, base int) {
	t.Helper()
	testutil.SettledGoroutines(t, base)
}

func TestMaxDepthBudget(t *testing.T) {
	tr := families.UnfoldTransducer()
	inst := families.DiamondChain(12)
	base := runtime.NumGoroutine()
	_, err := tr.Run(inst, pt.Options{MaxDepth: 5})
	var be *runctl.ErrBudget
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want *runctl.ErrBudget", err)
	}
	if be.Kind != runctl.BudgetDepth || be.Limit != 5 {
		t.Fatalf("budget kind/limit = %s/%d, want %s/5", be.Kind, be.Limit, runctl.BudgetDepth)
	}
	if be.Observed <= be.Limit {
		t.Fatalf("ErrBudget.Observed = %d, want > limit %d", be.Observed, be.Limit)
	}
	settledGoroutines(t, base)
}

// TestDeadlineAcceptance: the doubly-exponential counter transducer of
// Proposition 1(4), run under a 100ms deadline, must come back with a
// typed cancellation within ~2× the deadline and leak nothing.
func TestDeadlineAcceptance(t *testing.T) {
	tr := families.CounterTransducer()
	inst := families.CounterInstance(6) // would need 2^64 nodes to finish
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := tr.RunContext(ctx, inst, pt.Options{})
	elapsed := time.Since(start)

	var ce *runctl.ErrCanceled
	if !errors.As(err, &ce) {
		t.Fatalf("divergent run under deadline: got %v, want *runctl.ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cause should unwrap to DeadlineExceeded, got %v", err)
	}
	// ~2× the deadline, with slack for slow CI machines.
	if elapsed > 400*time.Millisecond {
		t.Errorf("run took %v after a 100ms deadline", elapsed)
	}
	settledGoroutines(t, base)
}

// TestTimeoutViaLimits exercises the same deadline through
// Options.Limits instead of an explicit context.
func TestTimeoutViaLimits(t *testing.T) {
	tr := families.CounterTransducer()
	inst := families.CounterInstance(6)
	base := runtime.NumGoroutine()
	start := time.Now()
	_, err := tr.Run(inst, pt.Options{
		Limits: &runctl.Limits{Timeout: 100 * time.Millisecond},
	})
	elapsed := time.Since(start)
	var ce *runctl.ErrCanceled
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *runctl.ErrCanceled", err)
	}
	if elapsed > 400*time.Millisecond {
		t.Errorf("run took %v after a 100ms Limits.Timeout", elapsed)
	}
	settledGoroutines(t, base)
}

// TestSequentialFaultTyped checks that an injected query fault fires
// on exactly the configured query and surfaces as the run's error.
func TestSequentialFaultTyped(t *testing.T) {
	tr := families.UnfoldTransducer()
	inst := families.DiamondChain(6)
	base := runtime.NumGoroutine()
	boom := errors.New("sequential fault")
	plan := &runctl.FaultPlan{Op: runctl.OpQuery, N: 5, Err: boom}
	_, err := tr.Run(inst, pt.Options{Faults: plan})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want injected fault", err)
	}
	if got := plan.Observed(); got != 5 {
		t.Errorf("Observed() = %d, want 5 (fault fires on the 5th)", got)
	}
	settledGoroutines(t, base)
}
