package plan_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"ptx/internal/eval"
	"ptx/internal/logic"
	"ptx/internal/plan"
	"ptx/internal/relation"
	"ptx/internal/runctl"
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
	}
	envs := map[string]*eval.Env{
		"graph": eval.NewEnv(graphInstance()),
		"empty": eval.NewEnv(emptyInstance()),
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
