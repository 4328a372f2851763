package plan_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ptx/internal/eval"
	"ptx/internal/logic"
	"ptx/internal/plan"
	"ptx/internal/relation"
	"ptx/internal/runctl"
	"ptx/internal/value"
)

func x() logic.Var                   { return logic.Var("x") }
func y() logic.Var                   { return logic.Var("y") }
func z() logic.Var                   { return logic.Var("z") }
func vs(names ...string) []logic.Var { return logic.Vars(names...) }

func graphInstance() *relation.Instance {
	s := relation.NewSchema().MustDeclare("A", 1).MustDeclare("E", 2)
	inst := relation.NewInstance(s)
	inst.Add("A", "a")
	inst.Add("A", "b")
	inst.Add("E", "a", "b")
	inst.Add("E", "b", "c")
	inst.Add("E", "c", "a")
	inst.Add("E", "a", "a")
	inst.Add("E", "c", "d")
	return inst
}

// regEnv is the graph instance with the extra relations a rule query
// sees at a node: a unary register Reg, a binary register Reg2 and a
// ternary T, sized so that conjunctions over them exercise both the
// index-probe and the hash-join paths of nConj.
func regEnv() *eval.Env {
	return eval.NewEnv(graphInstance()).
		WithRelation("Reg", relation.FromRows([]string{"a"}, []string{"c"})).
		WithRelation("Reg2", relation.FromRows([]string{"a", "c"}, []string{"c", "d"}, []string{"b", "b"})).
		WithRelation("T", relation.FromRows(
			[]string{"a", "b", "c"}, []string{"a", "c", "c"}, []string{"c", "a", "b"},
			[]string{"c", "b", "c"}, []string{"b", "a", "a"}))
}

func emptyInstance() *relation.Instance {
	s := relation.NewSchema().MustDeclare("A", 1).MustDeclare("E", 2)
	return relation.NewInstance(s)
}

// diff evaluates q through the compiled plan and through the naive
// reference evaluator and requires identical results (or both failing).
func diff(t *testing.T, q *logic.Query, env *eval.Env) {
	t.Helper()
	p, err := plan.Compile(q)
	if err != nil {
		t.Fatalf("compile %s: %v", q, err)
	}
	got, gerr := p.Eval(env)
	want, werr := eval.EvalQueryNaive(q, env)
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("%s: plan err %v, naive err %v", q, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if !got.Equal(want) {
		t.Fatalf("%s:\nplan  %s\nnaive %s\n%s", q, got, want, p.Explain())
	}
}

func tcFix(rel string, u, v logic.Var, args ...logic.Term) *logic.Fixpoint {
	w := logic.Var("w")
	return &logic.Fixpoint{
		Rel:  rel,
		Vars: []logic.Var{u, v},
		Body: &logic.Or{
			L: logic.R("E", u, v),
			R: &logic.Exists{Bound: []logic.Var{w}, F: logic.Conj(logic.R(rel, u, w), logic.R("E", w, v))},
		},
		Args: args,
	}
}

func TestPlanDifferential(t *testing.T) {
	cases := []struct {
		name string
		q    *logic.Query
	}{
		{"atom", logic.MustQuery(vs("x"), vs("y"), logic.R("E", x(), y()))},
		{"dup-var", logic.MustQuery(vs("x"), nil, logic.R("E", x(), x()))},
		{"const-scan", logic.MustQuery(vs("x"), nil, logic.R("E", logic.Const("a"), x()))},
		{"const-only", logic.MustQuery(nil, nil, logic.R("E", logic.Const("a"), logic.Const("b")))},
		{"path-join", logic.MustQuery(vs("x"), vs("y", "z"),
			logic.Conj(logic.R("E", x(), y()), logic.R("E", y(), z())))},
		{"triangle-neq", logic.MustQuery(vs("x"), vs("y", "z"),
			logic.Conj(logic.R("E", x(), y()), logic.R("E", y(), z()), logic.R("E", z(), x()),
				logic.NeqT(x(), z())))},
		{"cross-product", logic.MustQuery(vs("x"), vs("y"),
			logic.Conj(logic.R("A", x()), logic.R("A", y())))},
		{"eq-binds-const", logic.MustQuery(vs("x"), vs("y"),
			logic.Conj(logic.R("A", x()), logic.EqT(y(), logic.Const("b"))))},
		{"eq-binds-var", logic.MustQuery(vs("x"), vs("y"),
			logic.Conj(logic.R("A", x()), logic.EqT(x(), y())))},
		{"eq-both-unbound", logic.MustQuery(vs("x"), vs("y", "z"),
			logic.Conj(logic.R("A", x()), logic.EqT(y(), z())))},
		{"eq-self", logic.MustQuery(vs("x"), nil, logic.EqT(x(), x()))},
		{"neq-self", logic.MustQuery(vs("x"), nil, logic.NeqT(x(), x()))},
		{"neq-unbound", logic.MustQuery(vs("x"), vs("y"),
			logic.Conj(logic.R("A", x()), logic.NeqT(y(), logic.Const("a"))))},
		{"neq-both-unbound", logic.MustQuery(vs("x"), vs("y"),
			logic.NeqT(x(), y()))},
		{"standalone-eq", logic.MustQuery(vs("x"), nil, logic.EqT(x(), logic.Const("c")))},
		{"or", logic.MustQuery(vs("x"), vs("y"),
			&logic.Or{L: logic.R("E", x(), y()), R: logic.R("A", x())})},
		{"not-atom", logic.MustQuery(vs("x"), nil,
			logic.Conj(logic.R("A", x()), &logic.Not{F: logic.R("E", x(), x())}))},
		{"not-conj", logic.MustQuery(vs("x"), vs("y"),
			&logic.Not{F: logic.Conj(logic.R("E", x(), y()), logic.R("A", x()))})},
		{"not-unbound", logic.MustQuery(vs("x"), vs("y"),
			logic.Conj(logic.R("A", x()), &logic.Not{F: logic.R("E", y(), y())}))},
		{"exists", logic.MustQuery(vs("x"), nil,
			&logic.Exists{Bound: vs("y"), F: logic.R("E", x(), y())})},
		{"forall", logic.MustQuery(vs("x"), nil,
			logic.Conj(logic.R("A", x()),
				&logic.Forall{Bound: vs("y"), F: &logic.Or{L: &logic.Not{F: logic.R("E", x(), y())}, R: logic.R("A", y())}}))},
		{"sentence-not", logic.MustQuery(vs("x"), nil,
			logic.Conj(logic.R("A", x()), &logic.Not{F: &logic.Exists{Bound: vs("y"), F: logic.R("E", y(), y())}}))},
		{"truth", logic.MustQuery(vs("x"), nil, logic.Conj(logic.R("A", x()), logic.True))},
		{"falsity", logic.MustQuery(nil, nil, logic.False)},
		{"free-head", logic.MustQuery(vs("x"), vs("y"), logic.R("A", x()))},
		{"fixpoint-tc", logic.MustQuery(vs("x"), vs("y"), tcFix("S", x(), y(), x(), y()))},
		{"fixpoint-const", logic.MustQuery(vs("y"), nil, tcFix("S", x(), y(), logic.Const("a"), y()))},
		{"fixpoint-neg", logic.MustQuery(vs("x"), vs("y"),
			logic.Conj(logic.R("A", x()), &logic.Not{F: tcFix("S", x(), y(), x(), y())}))},
		// Index-probe joins: in the reg env, the register drives lookups
		// into the larger relation's column index.
		{"probe-reg", logic.MustQuery(vs("x"), vs("y"),
			logic.Conj(logic.R("Reg", y()), logic.R("E", y(), x())))},
		{"probe-two-shared", logic.MustQuery(vs("x", "y"), nil,
			logic.Conj(logic.R("Reg2", x(), y()), logic.R("E", y(), x())))},
		{"probe-dup-var", logic.MustQuery(vs("x"), nil,
			logic.Conj(logic.R("Reg", x()), logic.R("E", x(), x())))},
		{"probe-const", logic.MustQuery(vs("x"), vs("y"),
			logic.Conj(logic.R("Reg", x()), logic.R("T", x(), y(), logic.Const("c"))))},
		{"probe-empty-bucket", logic.MustQuery(vs("x"), vs("y", "z"),
			logic.Conj(logic.R("Reg2", x(), y()), logic.R("E", y(), z())))},
		{"probe-overlay", logic.MustQuery(vs("x"), nil,
			&logic.Exists{Bound: vs("y"), F: logic.Conj(logic.R("Reg", y()), tcFix("S", y(), x(), y(), x()))})},
		{"probe-then-hash", logic.MustQuery(vs("x"), vs("y"),
			logic.Conj(logic.R("Reg", x()), logic.R("E", x(), y()), logic.R("A", y())))},
	}
	envs := map[string]*eval.Env{
		"graph": eval.NewEnv(graphInstance()),
		"empty": eval.NewEnv(emptyInstance()),
		"reg":   regEnv(),
	}
	for _, tc := range cases {
		for ename, env := range envs {
			t.Run(tc.name+"/"+ename, func(t *testing.T) { diff(t, tc.q, env) })
		}
	}
}

func TestPlanExtraRelationShadowing(t *testing.T) {
	inst := graphInstance()
	reg := relation.FromRows([]string{"a", "z"})
	env := eval.NewEnv(inst).WithRelation("Reg", reg)
	q := logic.MustQuery(vs("x"), vs("y"),
		logic.Conj(logic.R("Reg", x(), y()), logic.R("E", x(), x())))
	diff(t, q, env)
	// The extra relation's values must enter the active domain ("z").
	q2 := logic.MustQuery(vs("x"), vs("y"),
		logic.Conj(logic.R("A", x()), logic.NeqT(y(), logic.Const("q"))))
	diff(t, q2, env.WithRelation("Reg", reg))
}

func TestPlanErrors(t *testing.T) {
	env := eval.NewEnv(graphInstance())
	for name, q := range map[string]*logic.Query{
		"unknown-relation": logic.MustQuery(vs("x"), nil, logic.R("U", x())),
		"arity-mismatch":   logic.MustQuery(vs("x"), nil, logic.R("E", x())),
	} {
		t.Run(name, func(t *testing.T) {
			p, err := plan.Compile(q)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if _, err := p.Eval(env); err == nil {
				t.Fatal("expected evaluation error")
			}
			diff(t, q, env) // and the failure mode matches the naive evaluator
		})
	}
}

func TestPlanFixpointBudget(t *testing.T) {
	ctl := runctl.New(context.Background(), runctl.Limits{MaxFixpointIters: 1})
	env := eval.NewEnv(graphInstance()).WithControl(ctl)
	q := logic.MustQuery(vs("x"), vs("y"), tcFix("S", x(), y(), x(), y()))
	p, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Eval(env); err == nil {
		t.Fatal("fixpoint budget of 1 iteration should fail on transitive closure")
	}
}

func TestPlanCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	env := eval.NewEnv(graphInstance()).WithControl(runctl.New(ctx, runctl.Limits{}))
	q := logic.MustQuery(vs("x"), vs("y", "z"),
		logic.Conj(logic.R("E", x(), y()), logic.R("E", y(), z())))
	p, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Eval(env); err == nil {
		t.Fatal("canceled context should abort evaluation")
	}

	// A probe join ticks per examined tuple, not per driver row: one
	// register row hitting a 5,000-tuple bucket must still notice a
	// cancellation that lands after evaluation started.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	inst := relation.NewInstance(relation.NewSchema().MustDeclare("R", 2))
	for i := 0; i < 5000; i++ {
		inst.Add("R", "hub", fmt.Sprintf("v%d", i))
	}
	base := eval.NewEnv(inst).WithRelation("Reg", relation.FromRows([]string{"hub"})).
		WithControl(runctl.New(ctx, runctl.Limits{}))
	q = logic.MustQuery(vs("x"), nil,
		&logic.Exists{Bound: vs("y"), F: logic.Conj(logic.R("Reg", y()), logic.R("R", y(), x()))})
	if p, err = plan.Compile(q); err != nil {
		t.Fatal(err)
	}
	_, err = p.Eval(cancelOnLookup{Env: base, cancel: cancel})
	var ce *runctl.ErrCanceled
	if !errors.As(err, &ce) {
		t.Fatalf("probe over a 5,000-tuple bucket after cancellation: err = %v, want *runctl.ErrCanceled", err)
	}
}

// cancelOnLookup cancels its context on the first relation lookup, so
// the cancellation lands after Plan.Eval's up-front check.
type cancelOnLookup struct {
	*eval.Env
	cancel context.CancelFunc
}

func (e cancelOnLookup) Lookup(name string) (*relation.Relation, bool) {
	e.cancel()
	return e.Env.Lookup(name)
}

// TestProbeAllocsIndependentOfRelation: a register-driven rule query
// probes the base relation's column index instead of scanning it, so
// once the index exists its allocations do not grow with the relation.
func TestProbeAllocsIndependentOfRelation(t *testing.T) {
	inst := relation.NewInstance(relation.NewSchema().MustDeclare("R", 2))
	for i := 0; i < 5000; i++ {
		inst.Add("R", fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1))
	}
	env := eval.NewEnv(inst).WithRelation("Reg", relation.FromRows([]string{"v42"}))
	q := logic.MustQuery(vs("x"), nil,
		&logic.Exists{Bound: vs("y"), F: logic.Conj(logic.R("Reg", y()), logic.R("R", y(), x()))})
	p, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Eval(env) // warm-up: builds R's column index
	if err != nil {
		t.Fatal(err)
	}
	if want := relation.FromRows([]string{"v43"}); !got.Equal(want) {
		t.Fatalf("got %s, want %s", got, want)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := p.Eval(env); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Fatalf("Eval allocated %.0f objects for a 1-row probe into a 5,000-tuple relation", allocs)
	}
}

// TestPlanConcurrentEval: one compiled plan is safe for concurrent use.
func TestPlanConcurrentEval(t *testing.T) {
	env := eval.NewEnv(graphInstance())
	q := logic.MustQuery(vs("x"), vs("y"), tcFix("S", x(), y(), x(), y()))
	p, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := p.Eval(env)
			if err != nil {
				errs[i] = err
				return
			}
			if !got.Equal(want) {
				errs[i] = errMismatch
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent eval produced a different result" }

func TestPlanExplain(t *testing.T) {
	q := logic.MustQuery(vs("x"), vs("y", "z"),
		logic.Conj(logic.R("E", x(), y()), logic.R("E", y(), z()), logic.NeqT(x(), z())))
	p, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	out := p.Explain()
	for _, want := range []string{"plan head=(x,y,z)", "conj", "scan E(x,y)", "x!=z"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain missing %q:\n%s", want, out)
		}
	}
	// A constant argument routes the scan through a column index.
	q2 := logic.MustQuery(vs("x"), nil, logic.R("E", logic.Const("a"), x()))
	p2, err := plan.Compile(q2)
	if err != nil {
		t.Fatal(err)
	}
	if out := p2.Explain(); !strings.Contains(out, "[index col 0]") {
		t.Fatalf("constant scan not index-backed:\n%s", out)
	}
}

// TestSingleAtomDifferential: a query that is one atom of distinct
// variables, possibly under a non-vacuous ∃, compiles to the
// single-atom operator, a column copy of the relation; every other
// shape falls back to the general plan. Both agree with the naive
// evaluator.
func TestSingleAtomDifferential(t *testing.T) {
	cases := []struct {
		name   string
		q      *logic.Query
		single bool
	}{
		{"identity", logic.MustQuery(vs("x", "y"), nil, logic.R("Reg2", x(), y())), true},
		{"prefix", logic.MustQuery(vs("x"), nil,
			&logic.Exists{Bound: vs("y"), F: logic.R("Reg2", x(), y())}), true},
		{"suffix", logic.MustQuery(vs("y"), nil,
			&logic.Exists{Bound: vs("x"), F: logic.R("Reg2", x(), y())}), true},
		{"reorder", logic.MustQuery(vs("y"), vs("x"), logic.R("Reg2", x(), y())), true},
		{"nested-exists", logic.MustQuery(vs("z"), nil,
			&logic.Exists{Bound: vs("x"), F: &logic.Exists{Bound: vs("y"), F: logic.R("T", x(), z(), y())}}), true},
		{"base-relation", logic.MustQuery(vs("x"), vs("y"), logic.R("E", x(), y())), true},
		{"constant", logic.MustQuery(vs("x"), nil, logic.R("Reg2", x(), logic.Const("c"))), false},
		{"repeated-var", logic.MustQuery(vs("x"), nil, logic.R("E", x(), x())), false},
		{"missing-head-var", logic.MustQuery(vs("x", "y"), nil, logic.R("A", x())), false},
		{"vacuous-exists", logic.MustQuery(vs("x", "y"), nil,
			&logic.Exists{Bound: vs("z"), F: logic.R("E", x(), y())}), false},
	}
	envs := map[string]*eval.Env{
		"reg": regEnv(),
		// Every relation is empty and so is the active domain: the
		// single-atom copy yields nothing, and a vacuous ∃ is false.
		"empty": eval.NewEnv(emptyInstance()).
			WithRelation("Reg2", relation.New(2)).
			WithRelation("T", relation.New(3)),
	}
	for _, tc := range cases {
		p, err := plan.Compile(tc.q)
		if err != nil {
			t.Fatalf("compile %s: %v", tc.q, err)
		}
		if got := strings.Contains(p.Explain(), "single-atom"); got != tc.single {
			t.Errorf("%s: single-atom operator = %v, want %v:\n%s", tc.name, got, tc.single, p.Explain())
		}
		for ename, env := range envs {
			t.Run(tc.name+"/"+ename, func(t *testing.T) { diff(t, tc.q, env) })
		}
	}
}

// TestSingleAtomCopiesRelation: the single-atom operator returns a copy,
// never the looked-up relation, so mutating the instance afterwards
// (Instance.Apply, as live views do) leaves an earlier result as it was.
func TestSingleAtomCopiesRelation(t *testing.T) {
	inst := graphInstance()
	q := logic.MustQuery(vs("x", "y"), nil, logic.R("E", x(), y()))
	p, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Eval(eval.NewEnv(inst))
	if err != nil {
		t.Fatal(err)
	}
	if got == inst.Rel("E") {
		t.Fatal("Eval returned the instance's relation itself")
	}
	before := got.String()
	d := (&relation.Delta{}).Insert("E", "d", "d").Delete("E", "a", "b")
	if _, err := inst.Apply(d); err != nil {
		t.Fatal(err)
	}
	if after := got.String(); after != before {
		t.Fatalf("result changed under an instance delta: %s, was %s", after, before)
	}
}

// TestSingleAtomAllocsConstant: the single-atom operator copies the
// register's columns into one slab, so its allocations do not grow
// with the register, and a one-row result is a single object.
func TestSingleAtomAllocsConstant(t *testing.T) {
	q := logic.MustQuery(vs("x"), nil, &logic.Exists{Bound: vs("y"), F: logic.R("Reg2", x(), y())})
	p, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		rows := make([]value.Tuple, n)
		for i := range rows {
			rows[i] = value.Tuple{value.V(fmt.Sprintf("c%04d", i)), value.V(fmt.Sprintf("t%d", i))}
		}
		env := eval.NewEnv(emptyInstance()).WithRelation("Reg2", relation.Build(2, rows))
		got, err := p.Eval(env)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != n {
			t.Fatalf("n=%d: %d result rows", n, got.Len())
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := p.Eval(env); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, two, thousand := allocs(1), allocs(2), allocs(1000)
	t.Logf("single-atom Eval: %.0f allocs at n=1, %.0f at n=2, %.0f at n=1000", one, two, thousand)
	if two != thousand {
		t.Errorf("single-atom Eval allocates %.0f objects at n=2 but %.0f at n=1000", two, thousand)
	}
	// A one-row result is one object: relation, tuple header and cells.
	if one != 1 {
		t.Errorf("single-atom Eval allocates %.0f objects at n=1, want 1", one)
	}
}

// TestPlanConcurrentScratch: concurrent evaluations of one plan each
// get their own pooled scratch. Run under -race, with plans that use
// every kind of scratch: hash joins, dedup sets, complements, fixpoint
// stages and the single-atom copy.
func TestPlanConcurrentScratch(t *testing.T) {
	env := regEnv()
	qs := []*logic.Query{
		logic.MustQuery(vs("x"), vs("y", "z"),
			logic.Conj(logic.R("E", x(), y()), logic.R("E", y(), z()), logic.NeqT(x(), z()))),
		logic.MustQuery(vs("x"), nil, &logic.Exists{Bound: vs("y", "w"),
			F: logic.Conj(logic.R("Reg", y()), logic.R("T", y(), x(), logic.Var("w")), logic.R("A", logic.Var("w")))}),
		logic.MustQuery(vs("x"), vs("y"),
			logic.Conj(logic.R("A", x()), &logic.Not{F: tcFix("S", x(), y(), x(), y())})),
		logic.MustQuery(vs("y"), vs("x"), logic.R("Reg2", x(), y())),
	}
	for _, q := range qs {
		p, err := plan.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eval.EvalQueryNaive(q, env)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for range 50 {
					got, err := p.Eval(env)
					if err != nil {
						errs[i] = err
						return
					}
					if !got.Equal(want) {
						errs[i] = fmt.Errorf("%s: got %s, want %s", q, got, want)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPlanFreshScratch: an evaluation that starts on fresh scratch
// (two garbage collections empty the pool) agrees with the naive
// evaluator too. Fresh scratch hands out nil column lists where warm
// scratch hands out empty ones, so a hash join with a zero-width right
// side (a sentence or ⊤ joined after a one-row atom) as the
// evaluation's first use of the scratch is a case of its own.
func TestPlanFreshScratch(t *testing.T) {
	env := eval.NewEnv(graphInstance()).WithRelation("One", relation.FromRows([]string{"a"}))
	for _, q := range []*logic.Query{
		logic.MustQuery(nil, nil, &logic.Exists{Bound: vs("x"), F: logic.Conj(logic.R("One", x()), logic.True)}),
		logic.MustQuery(vs("x"), nil,
			logic.Conj(logic.R("One", x()), &logic.Exists{Bound: vs("y"), F: logic.R("E", y(), y())})),
		logic.MustQuery(vs("x"), vs("y"), logic.Conj(logic.R("A", x()), logic.R("A", y()))),
	} {
		runtime.GC()
		runtime.GC()
		diff(t, q, env)
	}
}

// TestPlanFixpointScratchReuse: each fixpoint iteration hands its
// scratch back to the next, and a fixpoint nested in another operator
// rewinds only its own. A 40-node path needs 40 stages.
func TestPlanFixpointScratchReuse(t *testing.T) {
	s := relation.NewSchema().MustDeclare("A", 1).MustDeclare("E", 2)
	inst := relation.NewInstance(s)
	for i := 0; i < 40; i++ {
		inst.Add("E", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
	}
	for _, n := range []string{"n0", "n7", "n39"} {
		inst.Add("A", n)
	}
	env := eval.NewEnv(inst)
	for _, q := range []*logic.Query{
		logic.MustQuery(vs("x"), vs("y"), tcFix("S", x(), y(), x(), y())),
		logic.MustQuery(vs("y"), nil, &logic.Exists{Bound: vs("x"),
			F: logic.Conj(logic.R("A", x()), tcFix("S", x(), y(), x(), y()))}),
		logic.MustQuery(vs("x"), vs("y"),
			logic.Conj(logic.R("A", x()), logic.R("A", y()), &logic.Not{F: tcFix("S", x(), y(), x(), y())})),
	} {
		diff(t, q, env)
	}
}
