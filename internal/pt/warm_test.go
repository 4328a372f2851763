// Warm-run allocation guards: with every rule query answered by a
// shared memo, a run should allocate little beyond the output tree —
// memoized results keep their grouped child registers, and the
// ancestor set is one hashed path pushed and popped in place — and
// running it under supervision should add next to nothing.
package pt_test

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ptx/internal/eval"
	"ptx/internal/parser"
	"ptx/internal/pt"
	"ptx/internal/relation"
	"ptx/internal/supervise"
)

// tau1Registrar loads the example τ1 spec and registrar.db.
func tau1Registrar(t *testing.T) (*pt.Transducer, *relation.Instance) {
	t.Helper()
	dir := filepath.Join("..", "..", "examples", "specs")
	src, err := os.ReadFile(filepath.Join(dir, "tau1.pt"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "registrar.db"))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := parser.ParseTransducer(string(src))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := parser.ParseInstance(string(data), tr.Schema)
	if err != nil {
		t.Fatal(err)
	}
	return tr, inst
}

func TestWarmRunAllocsPerNode(t *testing.T) {
	tr, inst := tau1Registrar(t)
	perNode := func(opts pt.Options) float64 {
		t.Helper()
		res, err := tr.Run(inst, opts) // warm-up
		if err != nil {
			t.Fatal(err)
		}
		nodes := res.Stats.Nodes
		if nodes != 79 {
			t.Fatalf("τ1 over registrar.db has %d nodes, want 79", nodes)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := tr.Run(inst, opts); err != nil {
				t.Fatal(err)
			}
		})
		return allocs / float64(nodes)
	}

	// Warm, a step allocates its children (1.14 allocs per node
	// measured).
	if got := perNode(pt.Options{Cache: pt.CacheQueries, Memo: eval.NewMemo(0)}); got > 4 {
		t.Errorf("warm shared-memo run: %.2f allocs per node, want ≤ 4", got)
	} else {
		t.Logf("warm shared-memo run: %.2f allocs per node", got)
	}
	// Cache off, every rule query is evaluated and a step allocates
	// only its query results and its children, a one-row result and an
	// only child one object each (2.29 allocs per node measured, 4.68
	// with three objects per result and two per child slab). Under
	// -race sync.Pool drops a random quarter of what is put back, so the
	// pooled plan scratch is rebuilt more often (5.7–6.0 measured before
	// the one-object results).
	coldBound := 3.5
	if pt.RaceEnabled {
		coldBound = 7.5
	}
	if got := perNode(pt.Options{}); got >= coldBound {
		t.Errorf("cache-off run: %.2f allocs per node, want < %.1f", got, coldBound)
	} else {
		t.Logf("cache-off run: %.2f allocs per node", got)
	}
}

// TestSupervisedFirstAttemptCost: servers and the CLI run every publish
// through supervise.Run, so a first attempt that succeeds must cost
// about what a bare RunContext does — under 1 KiB more per warm τ1 run.
// A retry's backoff state (a seeded PRNG of a few KB) is only built
// when a retry happens.
func TestSupervisedFirstAttemptCost(t *testing.T) {
	if pt.RaceEnabled {
		t.Skip("the race detector inflates allocation figures")
	}
	tr, inst := tau1Registrar(t)
	opts := pt.Options{Cache: pt.CacheQueries, Memo: eval.NewMemo(0)}
	ctx := context.Background()
	bytesPerRun := func(run func() error) float64 {
		t.Helper()
		if err := run(); err != nil { // warm-up
			t.Fatal(err)
		}
		const n = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n {
			if err := run(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	bare := bytesPerRun(func() error {
		_, err := tr.RunContext(ctx, inst, opts)
		return err
	})
	supervised := bytesPerRun(func() error {
		_, _, err := supervise.Run(ctx, tr, inst, supervise.Options{Run: opts})
		return err
	})
	if d := supervised - bare; d >= 1024 {
		t.Errorf("supervise.Run first attempt: %.0f B/run vs RunContext %.0f B/run (+%.0f B), want < 1 KiB more", supervised, bare, d)
	} else {
		t.Logf("supervise.Run first attempt: %.0f B/run vs RunContext %.0f B/run (+%.0f B)", supervised, bare, d)
	}
}
