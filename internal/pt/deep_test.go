package pt

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"ptx/internal/logic"
	"ptx/internal/relation"
	"ptx/internal/xmltree"
)

// chainTransducerN builds a transducer whose output on {R1(v)} is a
// chain of n "a" nodes under the root: n distinct states over a single
// reused tag, so the per-level work is O(1) and the only thing that
// grows is depth. This is the deep regime of Proposition 1(4) distilled:
// the recursive expansion used to need one Go stack frame and one full
// ancestor-set copy per level.
func chainTransducerN(n int) *Transducer {
	tr := New("chain"+strconv.Itoa(n), unarySchema(), "q0", "r")
	tr.DeclareTag("a", 1)
	root := logic.MustQuery([]logic.Var{x}, nil, logic.R("R1", x))
	step := logic.MustQuery([]logic.Var{x}, nil, logic.R(RegRel, x))
	tr.AddRule("q0", "r", Item("q1", "a", root))
	for i := 1; i < n; i++ {
		tr.AddRule("q"+strconv.Itoa(i), "a", Item("q"+strconv.Itoa(i+1), "a", step))
	}
	// q_n has no rule for "a": the chain finalizes as a leaf.
	return tr
}

func chainInstance() *relation.Instance {
	inst := relation.NewInstance(unarySchema())
	inst.Add("R1", "v")
	return inst
}

// TestDeepChainMillion: a depth-10^6 chain must expand, serialize and
// round-trip without stack overflow or quadratic ancestor copying.
func TestDeepChainMillion(t *testing.T) {
	n := 1_000_000
	if raceEnabled {
		n = 50_000 // the detector is ~10× slower; full depth adds nothing here
	}
	tr := chainTransducerN(n)
	inst := chainInstance()

	res, err := tr.Run(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxDepth != n+1 {
		t.Fatalf("MaxDepth = %d, want %d", res.Stats.MaxDepth, n+1)
	}
	if res.Stats.Nodes != n+1 {
		t.Fatalf("Nodes = %d, want %d", res.Stats.Nodes, n+1)
	}

	out := res.Xi.SpliceVirtual(tr.Virtual)
	if d := out.Depth(); d != n+1 {
		t.Fatalf("output depth = %d, want %d", d, n+1)
	}
	canon := out.Canonical()
	if !strings.HasPrefix(canon, "r(a(a(") || !strings.HasSuffix(canon, ")))") {
		t.Fatalf("canonical shape wrong: %.20s…%s", canon, canon[len(canon)-4:])
	}
}

// TestDeepChainCacheModesAgree: the deep regime must be byte-identical
// and stats-identical across all cache modes.
func TestDeepChainCacheModesAgree(t *testing.T) {
	n := 100_000
	if raceEnabled {
		n = 20_000
	}
	tr := chainTransducerN(n)
	inst := chainInstance()

	type outcome struct {
		canon string
		nodes int
		depth int
	}
	var base *outcome
	for _, mode := range []CacheMode{CacheOff, CacheQueries} {
		res, err := tr.Run(inst, Options{Cache: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Stats.CacheMode != mode {
			t.Fatalf("effective mode = %v, want %v", res.Stats.CacheMode, mode)
		}
		rel, err := tr.OutputRelation(inst, "a", Options{Cache: mode})
		if err != nil {
			t.Fatalf("%v: OutputRelation: %v", mode, err)
		}
		if rel.Len() != 1 {
			t.Fatalf("%v: output relation size = %d, want 1", mode, rel.Len())
		}
		o := &outcome{
			canon: res.Xi.SpliceVirtual(tr.Virtual).Canonical(),
			nodes: res.Stats.Nodes,
			depth: res.Stats.MaxDepth,
		}
		if base == nil {
			base = o
			continue
		}
		if o.canon != base.canon {
			t.Errorf("%v: canonical output differs from CacheOff", mode)
		}
		if o.nodes != base.nodes || o.depth != base.depth {
			t.Errorf("%v: stats (%d,%d) differ from CacheOff (%d,%d)",
				mode, o.nodes, o.depth, base.nodes, base.depth)
		}
	}
}

// TestGroupArityValidate: a rule item whose grouping prefix is wider
// than the declared tag arity must be rejected by Validate with the
// typed *GroupArityError — it used to survive validation and panic on
// t[:k] during grouping.
func TestGroupArityValidate(t *testing.T) {
	sch := relation.NewSchema().MustDeclare("R2", 2)
	y := logic.Var("y")
	tr := New("badgroup", sch, "q0", "r")
	tr.DeclareTag("a", 1)
	// Two group variables against Θ(a)=1.
	q := logic.MustQuery([]logic.Var{x, y}, nil, logic.R("R2", x, y))
	tr.AddRule("q0", "r", Item("q", "a", q))

	err := tr.Validate()
	if err == nil {
		t.Fatal("Validate accepted |x̄| > Θ(tag)")
	}
	var ge *GroupArityError
	if !errors.As(err, &ge) {
		t.Fatalf("error %v is not a *GroupArityError", err)
	}
	if ge.GroupVars != 2 || ge.Arity != 1 {
		t.Fatalf("GroupArityError = %+v, want {2 1}", ge)
	}

	// The run path surfaces the same validation error instead of
	// panicking mid-expansion.
	inst := relation.NewInstance(sch)
	inst.Add("R2", "u", "v")
	if _, runErr := tr.Run(inst, Options{}); !errors.As(runErr, &ge) {
		t.Fatalf("Run error %v is not a *GroupArityError", runErr)
	}
}

// TestGroupByPrefixArityGuard: the runtime defense in groupByPrefix
// itself — a mis-sized result relation (as a corrupted cache could
// produce) yields the typed error, not a slice-bounds panic.
func TestGroupByPrefixArityGuard(t *testing.T) {
	rel := relation.New(1)
	rel.Add(xmltree.RegisterOfSingle("v").Tuples()[0])
	if _, err := groupByPrefix(rel, 1); err != nil {
		t.Fatalf("k == arity must group: %v", err)
	}
	_, err := groupByPrefix(rel, 2)
	var ge *GroupArityError
	if !errors.As(err, &ge) {
		t.Fatalf("error %v is not a *GroupArityError", err)
	}
	if ge.GroupVars != 2 || ge.Arity != 1 {
		t.Fatalf("GroupArityError = %+v, want {2 1}", ge)
	}
}

// TestGroupByPrefixDistinctSpellings: "1" and "01" have one magnitude
// but are distinct values, so they head distinct groups, each holding
// all of its tuples, in domain order.
func TestGroupByPrefixDistinctSpellings(t *testing.T) {
	rel := relation.FromRows([]string{"1", "a"}, []string{"01", "b"}, []string{"1", "c"}, []string{"2", "d"})
	groups, err := groupByPrefix(rel, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, g := range groups {
		got = append(got, g.String())
	}
	want := []string{"{(01,b)}", "{(1,a),(1,c)}", "{(2,d)}"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("groups = %v, want %v", got, want)
	}
}

// combTransducerN builds a comb of depth n on {R1(v)}: every "a" level
// emits the next "a" plus one "b" leaf, so each level is a branching
// node and the frontier holds a pending leaf at every depth.
func combTransducerN(n int) *Transducer {
	tr := New("comb"+strconv.Itoa(n), unarySchema(), "q0", "r")
	tr.DeclareTag("a", 1)
	tr.DeclareTag("b", 1)
	root := logic.MustQuery([]logic.Var{x}, nil, logic.R("R1", x))
	step := logic.MustQuery([]logic.Var{x}, nil, logic.R(RegRel, x))
	tr.AddRule("q0", "r", Item("q1", "a", root))
	for i := 1; i < n; i++ {
		tr.AddRule("q"+strconv.Itoa(i), "a", Item("q"+strconv.Itoa(i+1), "a", step), Item("leaf", "b", step))
	}
	return tr
}

// TestStepRunCombLinear: a stepwise run must cost O(1) per node on a
// comb, as a plain Run does. Copying the ancestor set at every
// branching node made it O(d) per node, so bytes per node grew with
// depth.
func TestStepRunCombLinear(t *testing.T) {
	inst := chainInstance()
	perNode := func(n int) float64 {
		t.Helper()
		tr := combTransducerN(n)
		golden, err := tr.Run(inst, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sr, err := tr.NewStepRun(context.Background(), inst, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sr.Run()
		sr.Close()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats != golden.Stats {
			t.Fatalf("d=%d: StepRun stats %+v, Run stats %+v", n, res.Stats, golden.Stats)
		}
		if got, want := res.Xi.SpliceVirtual(tr.Virtual).Canonical(), golden.Xi.SpliceVirtual(tr.Virtual).Canonical(); got != want {
			t.Fatalf("d=%d: StepRun output differs from Run", n)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Stats.Nodes)
	}
	small, large := perNode(2_000), perNode(8_000)
	t.Logf("bytes per node: %.0f at d=2000, %.0f at d=8000", small, large)
	if large > 2*small {
		t.Errorf("StepRun bytes per node grew %.1f× from d=2000 to d=8000, want ≤ 2×", large/small)
	}
}
