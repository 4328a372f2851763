// Rule-level query sharing: AddRule interns identical rule queries per
// transducer, and an Expander evaluates each distinct query of a rule
// once per node, handing its result to every item that repeats it.
package pt_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ptx/internal/eval"
	"ptx/internal/families"
	"ptx/internal/logic"
	"ptx/internal/parser"
	"ptx/internal/pt"
	"ptx/internal/relation"
	"ptx/internal/value"
	"ptx/internal/xmltree"
)

// parsedCounterSpec is the Proposition 1(4) counter in surface syntax.
// The parser builds a fresh query for each of the six occurrences of the
// increment query φ₁, where families.CounterTransducer reuses one.
const parsedCounterSpec = `schema counter/3, add/5, next/2
transducer counter root r start q0
tag a/3, a2/3

rule q0 r ->
  (q,  a,  [;k,d,c] counter(k,d,c)),
  (q2, a2, [;k,d,c] counter(k,d,c))
rule q a ->
  (q,  a,  [;k,d,c] exists d1,c1,kp,d2,c2,d3,c3 .
    Reg(k,d1,c1) & Reg(kp,d2,c2) & next(kp,k) & counter(k,d3,c3) & add(d1,c2,c3,d,c)),
  (q2, a2, [;k,d,c] exists d1,c1,kp,d2,c2,d3,c3 .
    Reg(k,d1,c1) & Reg(kp,d2,c2) & next(kp,k) & counter(k,d3,c3) & add(d1,c2,c3,d,c))
rule q2 a2 ->
  (q,  a,  [;k,d,c] exists d1,c1,kp,d2,c2,d3,c3 .
    Reg(k,d1,c1) & Reg(kp,d2,c2) & next(kp,k) & counter(k,d3,c3) & add(d1,c2,c3,d,c)),
  (q2, a2, [;k,d,c] exists d1,c1,kp,d2,c2,d3,c3 .
    Reg(k,d1,c1) & Reg(kp,d2,c2) & next(kp,k) & counter(k,d3,c3) & add(d1,c2,c3,d,c))
`

func parsedCounter(t testing.TB) *pt.Transducer {
	t.Helper()
	tr, err := parser.ParseTransducer(parsedCounterSpec)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestParsedCounterSharesQueries: on J₂ the parsed counter evaluates φ₁
// once per a- or a2-node instead of once per item (159 queries, not
// 318), and under the memo its six textual copies of φ₁ are one query,
// so it runs exactly as many queries as families.CounterTransducer.
func TestParsedCounterSharesQueries(t *testing.T) {
	tr := parsedCounter(t)
	inst := families.CounterInstance(2)
	qa, _ := tr.Rule("q", "a")
	qa2, _ := tr.Rule("q2", "a2")
	if qa.Items[0].Query != qa.Items[1].Query || qa.Items[0].Query != qa2.Items[1].Query {
		t.Error("identical increment queries were not interned to one object")
	}

	f := fixture{name: "parsed-counter-2", tr: tr, inst: inst}
	off, offStats := output(t, f, pt.Options{})
	if offStats.QueriesRun != 159 {
		t.Errorf("cache off: %d queries, want 159", offStats.QueriesRun)
	}
	memo, memoStats := output(t, f, pt.Options{Cache: pt.CacheQueries})
	_, famStats := output(t, fixture{name: "counter-2", tr: families.CounterTransducer(), inst: inst},
		pt.Options{Cache: pt.CacheQueries})
	if memoStats.QueriesRun != famStats.QueriesRun || memoStats.QueriesRun != 6 {
		t.Errorf("cache query: %d queries, families.CounterTransducer %d; want 6 both",
			memoStats.QueriesRun, famStats.QueriesRun)
	}
	noPlan, _ := output(t, f, pt.Options{NoPlan: true})
	if memo != off || noPlan != off {
		t.Error("output bytes differ across cache off, cache query and NoPlan")
	}
}

// TestInternKeyInjective: interning must not merge queries that differ
// only in ways String hides. R('a','b','c') renders both (a','b, c) and
// (a, b','c); [x;] and [;x] share a formula but group differently. Each
// pair stays two objects, and each query spawns its own children.
func TestInternKeyInjective(t *testing.T) {
	x := logic.Var("x")
	left := logic.MustQuery(nil, nil, logic.R("R", logic.Const("a','b"), logic.Const("c")))
	right := logic.MustQuery(nil, nil, logic.R("R", logic.Const("a"), logic.Const("b','c")))
	if left.String() != right.String() {
		t.Fatalf("renderings differ (%s, %s); the collision this test pins is gone", left, right)
	}
	group := logic.MustQuery([]logic.Var{x}, nil, logic.R("U", x))
	content := logic.MustQuery(nil, []logic.Var{x}, logic.R("U", x))
	if left.Key() == right.Key() || group.Key() == content.Key() {
		t.Fatal("logic.Query.Key collides")
	}

	schema := relation.NewSchema().MustDeclare("R", 2).MustDeclare("U", 1)
	tr := pt.New("inject", schema, "q0", "r")
	tr.DeclareTag("a", 0).DeclareTag("b", 0).DeclareTag("c", 1).DeclareTag("d", 1)
	tr.AddRule("q0", "r", pt.Item("q", "a", left), pt.Item("q", "b", right),
		pt.Item("q", "c", group), pt.Item("q", "d", content))
	rule, _ := tr.Rule("q0", "r")
	seen := map[*logic.Query]bool{}
	for _, it := range rule.Items {
		seen[it.Query] = true
	}
	if len(seen) != 4 {
		t.Fatalf("interning merged distinct queries: %d objects, want 4", len(seen))
	}

	inst := relation.NewInstance(schema)
	inst.Add("R", "a','b", "c")
	inst.Add("U", "1")
	inst.Add("U", "2")
	res, err := tr.Run(inst, pt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var tags string
	for _, c := range res.Xi.Root.Children {
		tags += c.Tag
	}
	if tags != "accd" || res.Stats.QueriesRun != 4 {
		t.Errorf("children %q after %d queries, want \"accd\" after 4", tags, res.Stats.QueriesRun)
	}
}

// TestExpanderMatchesPerItemNaive is the differential twin of the
// shared rule step: for every rule of τ1, τ2v, τ3, unfold and the
// parsed counter, over seeded registers, one reused Expander per
// fixture (with and without a memo) returns exactly the specs of
// evaluating every item on its own with the reference evaluator and
// grouping its result, after one evaluation per distinct query of the
// rule.
func TestExpanderMatchesPerItemNaive(t *testing.T) {
	fixtures := specFixtures(t)
	fixtures = append(fixtures,
		fixture{"unfold-diamond-4", families.UnfoldTransducer(), families.DiamondChain(4)},
		fixture{"parsed-counter-2", parsedCounter(t), families.CounterInstance(2)})
	rng := rand.New(rand.NewSource(1))
	for _, f := range fixtures {
		adom := append(f.inst.ActiveDomain(), "zz")
		base := eval.NewEnv(f.inst)
		plain, memoized := runExpander(t, f, pt.Options{}), runExpander(t, f, pt.Options{Cache: pt.CacheQueries})
		for _, rule := range f.tr.Rules() {
			distinct := map[string]bool{}
			for _, it := range rule.Items {
				distinct[it.Query.Key()] = true
			}
			for n := 0; n < 6; n++ {
				reg := randomRegister(rng, f.tr.Arity(rule.Tag), adom)
				want := naiveSpecs(t, rule, reg, base)
				for _, x := range []*pt.Expander{plain, memoized} {
					got, queries, err := x.Expand(rule.State, rule.Tag, reg)
					if err != nil {
						t.Fatalf("%s (%s,%s): %v", f.name, rule.State, rule.Tag, err)
					}
					if s := specsString(got); s != want {
						t.Fatalf("%s (%s,%s) memo=%v reg=%s:\n got %s\nwant %s",
							f.name, rule.State, rule.Tag, x == memoized, reg.Key(), s, want)
					}
					if x == plain && queries != len(distinct) {
						t.Errorf("%s (%s,%s): %d queries, want %d (one per distinct query)",
							f.name, rule.State, rule.Tag, queries, len(distinct))
					}
				}
			}
		}
	}
}

// runExpander returns the rule step of a run of f's transducer over
// its instance under opts.
func runExpander(t *testing.T, f fixture, opts pt.Options) *pt.Expander {
	t.Helper()
	sr, err := f.tr.NewStepRun(context.Background(), f.inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sr.Close)
	return sr.Expander()
}

// randomRegister draws up to four tuples of the given arity over adom.
func randomRegister(rng *rand.Rand, arity int, adom []value.V) *relation.Relation {
	reg := relation.New(arity)
	for n := rng.Intn(5); n > 0; n-- {
		tup := make(value.Tuple, arity)
		for i := range tup {
			tup[i] = adom[rng.Intn(len(adom))]
		}
		reg.Add(tup)
	}
	return reg
}

// naiveSpecs renders the specs of evaluating each item of rule alone on
// the reference evaluator and grouping its result.
func naiveSpecs(t *testing.T, rule *pt.Rule, reg *relation.Relation, base *eval.Env) string {
	t.Helper()
	var specs []pt.ChildSpec
	for _, it := range rule.Items {
		rel, err := eval.EvalQueryNaive(it.Query, base.WithRelation(pt.RegRel, reg))
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range rel.GroupByPrefix(len(it.Query.GroupVars)) {
			specs = append(specs, pt.ChildSpec{State: it.State, Tag: it.Tag, Reg: g})
		}
	}
	return specsString(specs)
}

func specsString(specs []pt.ChildSpec) string {
	s := ""
	for _, c := range specs {
		s += fmt.Sprintf("(%s,%s,%v)", c.State, c.Tag, c.Reg.Tuples())
	}
	return s
}

// TestColdCounterAllocs guards the cost of a cache-off run of the
// parsed counter on J₂: 159 query evaluations, each working in pooled
// plan scratch and allocating only its result, and sharing φ₁ between
// the a and a2 items halves the evaluations. Configurations are
// compared by hash and equality in one run-owned Env, so a step
// allocates its query results and its children: 829 allocations per
// run, with a one-row result and an only child one object each (987
// with three objects per result and two per child slab, 2.3k with a
// string key and an Env per step, 15.1k when every operator allocated
// its own rows and sets). The 160 stops pin the ancestor test itself.
func TestColdCounterAllocs(t *testing.T) {
	if pt.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tr, inst := parsedCounter(t), families.CounterInstance(2)
	res, err := tr.Run(inst, pt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Stats; s.Nodes != 319 || s.QueriesRun != 159 || s.StopsApplied != 160 {
		t.Fatalf("stats %+v, want 319 nodes, 159 queries, 160 stops", s)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := tr.Run(inst, pt.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per cold cache-off run", allocs)
	if allocs > 1000 {
		t.Errorf("%.0f allocs per run, want ≤ 1000", allocs)
	}
}

// TestRegistersOutliveDeltas: the root rule of the counter is a
// single-atom query over the instance relation counter, whose result is
// a copy. A delta applied to the instance after a run leaves that run's
// registers and memoized results as they were.
func TestRegistersOutliveDeltas(t *testing.T) {
	tr, inst := parsedCounter(t), families.CounterInstance(2)
	memo := eval.NewMemo(0)
	res, err := tr.Run(inst, pt.Options{Cache: pt.CacheQueries, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	registers := func() []string {
		var out []string
		res.Xi.Walk(func(n *xmltree.Node) bool {
			if n.Reg != nil {
				out = append(out, n.Reg.String())
			}
			return true
		})
		return out
	}
	root, _ := tr.Rule("q0", "r")
	memoized, ok := memo.Get(root.Items[0].Query, relation.New(0))
	if !ok {
		t.Fatal("the root query's result was not memoized")
	}
	before, memoBefore := registers(), memoized.String()

	first := inst.Rel("counter").Sorted()[0]
	d := (&relation.Delta{}).Insert("counter", "9", "1", "1").
		Delete("counter", string(first[0]), string(first[1]), string(first[2]))
	if _, err := inst.Apply(d); err != nil {
		t.Fatal(err)
	}
	after := registers()
	if len(after) != len(before) {
		t.Fatalf("%d registers after the delta, %d before", len(after), len(before))
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("register %d changed under the delta: %s, was %s", i, after[i], before[i])
		}
	}
	if got := memoized.String(); got != memoBefore {
		t.Fatalf("memoized root result changed under the delta: %s, was %s", got, memoBefore)
	}
}
