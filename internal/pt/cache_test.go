package pt

import (
	"testing"

	"ptx/internal/logic"
	"ptx/internal/relation"
)

func TestParseCacheMode(t *testing.T) {
	cases := map[string]CacheMode{
		"off": CacheOff, "query": CacheQueries, "queries": CacheQueries,
	}
	for in, want := range cases {
		got, err := ParseCacheMode(in)
		if err != nil || got != want {
			t.Errorf("ParseCacheMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"bogus", "subtree", "subtrees"} {
		if _, err := ParseCacheMode(bad); err == nil {
			t.Errorf("mode %q should fail", bad)
		}
	}
	if CacheOff.String() != "off" || CacheQueries.String() != "query" {
		t.Error("String() spellings drifted from the CLI contract")
	}
}

// TestQueryMemoSharesDuplicateItems: two items of one rule carrying the same
// query against the same register spawn the same groups (Definition
// 3.1), so the rule step evaluates that query once in every cache mode,
// and under the memo it is one miss with no hit.
func TestQueryMemoSharesDuplicateItems(t *testing.T) {
	q := logic.MustQuery([]logic.Var{x}, nil, logic.R("R1", x))
	tr := New("dup", unarySchema(), "q0", "r")
	tr.DeclareTag("a", 1).DeclareTag("b", 1)
	tr.AddRule("q0", "r", Item("qa", "a", q), Item("qb", "b", q))
	inst := relation.NewInstance(unarySchema())
	inst.Add("R1", "v")

	off, err := tr.Run(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	memo, err := tr.Run(inst, Options{Cache: CacheQueries})
	if err != nil {
		t.Fatal(err)
	}
	if off.Stats.QueriesRun != 1 || memo.Stats.QueriesRun != 1 {
		t.Errorf("queries: off=%d memo=%d, want 1 and 1", off.Stats.QueriesRun, memo.Stats.QueriesRun)
	}
	if memo.Stats.CacheHits != 0 || memo.Stats.CacheMisses != 1 {
		t.Errorf("memo stats = %+v, want 0 hits / 1 miss", memo.Stats)
	}
	if off.Stats.Nodes != 3 || memo.Stats.Nodes != 3 {
		t.Errorf("nodes: off=%d memo=%d, want 3 (root, a, b)", off.Stats.Nodes, memo.Stats.Nodes)
	}
}

// TestChildrenOrderedByRegisterAcrossModes: sibling order is fixed by
// the domain order on group prefixes at grouping time, independent of
// the order-insensitive register fingerprints the caches key on.
func TestChildrenOrderedByRegisterAcrossModes(t *testing.T) {
	tr := simple()
	inst := relation.NewInstance(unarySchema())
	for _, v := range []string{"10", "2", "1"} {
		inst.Add("R1", v)
	}
	want := []string{"1", "2", "10"} // numeric order
	for _, mode := range []CacheMode{CacheOff, CacheQueries} {
		res, err := tr.Run(inst, Options{Cache: mode})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range res.Xi.Root.Children {
			if got := string(c.Reg.Tuples()[0][0]); got != want[i] {
				t.Fatalf("cache=%v: child %d = %s, want %s", mode, i, got, want[i])
			}
		}
	}
}
