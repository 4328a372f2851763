// Warm-run allocation guard: with every rule query answered by a
// shared memo, a run should allocate little beyond the output tree —
// memoized results keep their grouped child registers, and the
// ancestor set is one path map pushed and popped in place.
package pt_test

import (
	"os"
	"path/filepath"
	"testing"

	"ptx/internal/eval"
	"ptx/internal/parser"
	"ptx/internal/pt"
)

func TestWarmRunAllocsPerNode(t *testing.T) {
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

	if got := perNode(pt.Options{Cache: pt.CacheQueries, Memo: eval.NewMemo(0)}); got > 10 {
		t.Errorf("warm shared-memo run: %.2f allocs per node, want ≤ 10", got)
	} else {
		t.Logf("warm shared-memo run: %.2f allocs per node", got)
	}
	if got := perNode(pt.Options{}); got >= 30 {
		t.Errorf("cache-off run: %.2f allocs per node, want < 30", got)
	} else {
		t.Logf("cache-off run: %.2f allocs per node", got)
	}
}
