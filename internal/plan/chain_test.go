package plan_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"ptx/internal/eval"
	"ptx/internal/logic"
	"ptx/internal/plan"
	"ptx/internal/relation"
	"ptx/internal/runctl"
	"ptx/internal/value"
)

// chainLargeEnv holds the relations of regEnv above the size where a
// probe switches from scanning to the column index: a 12-row Reg and
// Reg2, a 30-edge E and a 20-row T over 15 values, and Big, whose
// column 0 is "a" in one row only, so a constant start is one bucket.
func chainLargeEnv() *eval.Env {
	v := func(i int) string { return fmt.Sprintf("v%d", i%15) }
	inst := relation.NewInstance(relation.NewSchema().MustDeclare("A", 1).MustDeclare("E", 2).MustDeclare("Big", 2))
	for i := 0; i < 15; i++ {
		inst.Add("E", v(i), v(i+1))
		inst.Add("E", v(i), v(i*i+3))
		if i%2 == 0 {
			inst.Add("A", v(i))
		}
		inst.Add("Big", "b"+v(i), v(i))
	}
	inst.Add("Big", "a", "v3")
	reg, reg2, tr := relation.New(1), relation.New(2), relation.New(3)
	for i := 0; i < 12; i++ {
		reg.Add(value.Tuple{value.V(v(i))})
		reg2.Add(value.Tuple{value.V(v(i)), value.V(v(2 * i))})
	}
	for i := 0; i < 20; i++ {
		tr.Add(value.Tuple{value.V(v(i)), value.V(v(3 * i)), value.V(v(i / 2))})
	}
	return eval.NewEnv(inst).WithRelation("Reg", reg).WithRelation("Reg2", reg2).WithRelation("T", tr)
}

// TestChainDifferential: an atom-only conjunction compiles to the
// nested-loop chain and agrees with the naive evaluator, over
// relations below and above the scan-or-index size and over empty
// ones; every other shape keeps the general plan.
func TestChainDifferential(t *testing.T) {
	w := logic.Var("w")
	a, c := logic.Const("a"), logic.Const("c")
	cases := []struct {
		name  string
		q     *logic.Query
		chain bool
	}{
		{"register-probe", logic.MustQuery(vs("x"), nil,
			logic.Ex(vs("y"), logic.Conj(logic.R("Reg", y()), logic.R("E", y(), x())))), true},
		{"path", logic.MustQuery(vs("x", "z"), nil,
			logic.Ex(vs("y"), logic.Conj(logic.R("E", x(), y()), logic.R("E", y(), z())))), true},
		{"repeated-var", logic.MustQuery(vs("x"), nil,
			logic.Conj(logic.R("Reg", x()), logic.R("E", x(), x()))), true},
		{"repeated-var-probed", logic.MustQuery(vs("x", "y"), nil,
			logic.Conj(logic.R("Reg", x()), logic.R("T", x(), y(), y()))), true},
		{"constant", logic.MustQuery(vs("x", "y"), nil,
			logic.Conj(logic.R("Reg", x()), logic.R("T", x(), y(), c))), true},
		{"constant-start", logic.MustQuery(vs("x", "y"), nil,
			logic.Conj(logic.R("Big", a, x()), logic.R("E", x(), y()))), true},
		{"eq-const", logic.MustQuery(vs("x", "y"), nil,
			logic.Conj(logic.R("E", x(), y()), logic.R("A", y()), logic.EqT(x(), c))), true},
		{"eq-vars", logic.MustQuery(vs("x", "y"), nil,
			logic.Ex(vs("z"), logic.Conj(logic.R("Reg2", x(), y()), logic.R("E", y(), z()), logic.EqT(x(), z())))), true},
		{"eq-bound-vars", logic.MustQuery(vs("x", "y", "z"), nil,
			logic.Conj(logic.R("Reg2", x(), y()), logic.R("E", y(), z()), logic.EqT(x(), z()))), true},
		{"neq", logic.MustQuery(vs("x"), nil,
			logic.Ex(vs("y", "z"), logic.Conj(logic.R("E", x(), y()), logic.R("E", y(), z()), logic.NeqT(x(), z())))), true},
		{"const-filters", logic.MustQuery(vs("x"), nil,
			logic.Ex(vs("y"), logic.Conj(logic.R("E", x(), y()), logic.R("A", y()),
				logic.NeqT(y(), a), logic.EqT(c, c)))), true},
		{"same-relation-twice", logic.MustQuery(vs("x", "z"), nil,
			logic.Ex(vs("y", "u"), logic.Conj(logic.R("Reg2", x(), y()), logic.R("Reg2", z(), logic.Var("u")),
				logic.R("E", z(), x())))), true},
		{"triangle", logic.MustQuery(vs("x"), nil,
			logic.Ex(vs("y", "z"), logic.Conj(logic.R("E", x(), y()), logic.R("E", y(), z()), logic.R("E", z(), x())))), true},
		{"four-atoms", logic.MustQuery(vs("x", "w"), nil,
			logic.Ex(vs("y", "z"), logic.Conj(logic.R("Reg", x()), logic.R("T", x(), y(), z()),
				logic.R("E", z(), w), logic.R("A", w)))), true},
		{"boolean", logic.MustQuery(nil, nil,
			logic.Ex(vs("x", "y"), logic.Conj(logic.R("Reg", x()), logic.R("E", x(), y())))), true},
		// Every other shape falls back to the general plan.
		{"single-atom", logic.MustQuery(vs("x"), nil, logic.R("E", x(), x())), false},
		{"or", logic.MustQuery(vs("x", "y"), nil,
			logic.Conj(logic.R("Reg", x()), &logic.Or{L: logic.R("E", x(), y()), R: logic.R("E", y(), x())})), false},
		{"not", logic.MustQuery(vs("x", "y"), nil,
			logic.Conj(logic.R("Reg", x()), logic.R("E", x(), y()), &logic.Not{F: logic.R("A", y())})), false},
		{"forall", logic.MustQuery(vs("x"), nil,
			logic.Conj(logic.R("Reg", x()), logic.R("A", x()),
				&logic.Forall{Bound: vs("y"), F: &logic.Or{L: &logic.Not{F: logic.R("E", x(), y())}, R: logic.R("A", y())}})), false},
		{"fixpoint", logic.MustQuery(vs("x", "y"), nil,
			logic.Conj(logic.R("Reg", x()), tcFix("S", x(), y(), x(), y()))), false},
		{"nested-exists", logic.MustQuery(vs("x"), nil,
			logic.Conj(logic.R("Reg", x()), logic.R("A", x()), logic.Ex(vs("y"), logic.R("E", x(), y())))), false},
		{"vacuous-exists", logic.MustQuery(vs("x"), nil,
			logic.Ex(vs("y", "w"), logic.Conj(logic.R("Reg", y()), logic.R("E", y(), x())))), false},
		{"head-var-unbound", logic.MustQuery(vs("x", "w"), nil,
			logic.Conj(logic.R("Reg", x()), logic.R("A", x()))), false},
		{"filter-var-unbound", logic.MustQuery(vs("x", "w"), nil,
			logic.Conj(logic.R("Reg", x()), logic.R("A", x()), logic.NeqT(x(), w))), false},
		{"disconnected", logic.MustQuery(vs("x", "y"), nil,
			logic.Conj(logic.R("Reg", x()), logic.R("A", y()))), false},
		{"truth", logic.MustQuery(vs("x"), nil,
			logic.Conj(logic.R("Reg", x()), logic.R("A", x()), logic.True)), false},
		{"nine-atoms", logic.MustQuery(vs("x"), nil,
			logic.Conj(logic.R("Reg", x()), logic.R("A", x()), logic.R("A", x()), logic.R("A", x()), logic.R("A", x()),
				logic.R("A", x()), logic.R("A", x()), logic.R("A", x()), logic.R("E", x(), x()))), false},
	}
	envs := map[string]*eval.Env{
		"small": regEnv().WithRelation("Big", relation.FromRows([]string{"a", "b"}, []string{"c", "a"})),
		"large": chainLargeEnv(),
		// Every relation is empty and so is the active domain.
		"empty": eval.NewEnv(emptyInstance()).
			WithRelation("Reg", relation.New(1)).
			WithRelation("Reg2", relation.New(2)).
			WithRelation("T", relation.New(3)).
			WithRelation("Big", relation.New(2)),
		// Only the register is empty: the chain stops before its loop.
		"empty-reg": chainLargeEnv().WithRelation("Reg", relation.New(1)).WithRelation("Reg2", relation.New(2)),
	}
	for _, tc := range cases {
		p, err := plan.Compile(tc.q)
		if err != nil {
			t.Fatalf("compile %s: %v", tc.q, err)
		}
		out := p.Explain()
		if got := strings.Contains(out, "conj nested-loop"); got != tc.chain {
			t.Errorf("%s: chain = %v, want %v:\n%s", tc.name, got, tc.chain, out)
		}
		if tc.chain && (!strings.Contains(out, "scan ") || strings.Count(out, "\n") < 3) {
			t.Errorf("%s: chain explains no scans:\n%s", tc.name, out)
		}
		for ename, env := range envs {
			t.Run(tc.name+"/"+ename, func(t *testing.T) { diff(t, tc.q, env) })
		}
	}
}

// TestChainExplain: the chain names its loop, one scan per atom in
// the order that starts at the first atom, how each later atom is
// probed, and its filters.
func TestChainExplain(t *testing.T) {
	q := logic.MustQuery(vs("x"), nil, logic.Ex(vs("y", "z"), logic.Conj(
		logic.R("Big", logic.Const("a"), y()), logic.R("E", y(), z()), logic.R("T", x(), z(), y()), logic.NeqT(x(), z()))))
	p, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	want := "plan head=(x)\n" +
		"  conj nested-loop -> (x) filters[x!=z]\n" +
		"    scan Big('a',y) -> (y) [index col 0]\n" +
		"    scan E(y,z) -> (y,z) [probe col 0]\n" +
		"    scan T(x,z,y) -> (x,z,y) [probe col 1]\n"
	if got := p.Explain(); got != want {
		t.Fatalf("explain:\n%s\nwant:\n%s", got, want)
	}
}

// TestChainCancel: a cancellation that lands after Plan.Eval's
// up-front check stops the nested loop, which ticks per examined
// tuple, with *runctl.ErrCanceled.
func TestChainCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inst := relation.NewInstance(relation.NewSchema().MustDeclare("R", 2).MustDeclare("S", 2))
	for i := 0; i < 1000; i++ {
		inst.Add("R", "hub", fmt.Sprintf("v%d", i))
		inst.Add("S", fmt.Sprintf("v%d", i), fmt.Sprintf("w%d", i))
	}
	base := eval.NewEnv(inst).WithRelation("Reg", relation.FromRows([]string{"hub"})).
		WithControl(runctl.New(ctx, runctl.Limits{}))
	q := logic.MustQuery(vs("x"), nil, logic.Ex(vs("y", "z"),
		logic.Conj(logic.R("Reg", y()), logic.R("R", y(), z()), logic.R("S", z(), x()))))
	p, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Explain(), "nested-loop") {
		t.Fatalf("not a chain:\n%s", p.Explain())
	}
	_, err = p.Eval(cancelOnLookup{Env: base, cancel: cancel})
	var ce *runctl.ErrCanceled
	if !errors.As(err, &ce) {
		t.Fatalf("chain over a 1,000-tuple bucket after cancellation: err = %v, want *runctl.ErrCanceled", err)
	}
}

// TestChainAllocsConstant: a register-anchored 3-atom chain works in
// pooled scratch, so its steady-state allocations do not grow with the
// register, and a one-row result is a single object.
func TestChainAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	inst := relation.NewInstance(relation.NewSchema().MustDeclare("R", 2).MustDeclare("S", 2))
	for i := 0; i < 2000; i++ {
		inst.Add("R", fmt.Sprintf("c%04d", i), fmt.Sprintf("t%d", i))
		inst.Add("S", fmt.Sprintf("t%d", i), fmt.Sprintf("u%d", i))
	}
	q := logic.MustQuery(vs("x"), nil, logic.Ex(vs("y", "z"),
		logic.Conj(logic.R("Reg", y()), logic.R("R", y(), z()), logic.R("S", z(), x()))))
	p, err := plan.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		rows := make([]value.Tuple, n)
		for i := range rows {
			rows[i] = value.Tuple{value.V(fmt.Sprintf("c%04d", i))}
		}
		env := eval.NewEnv(inst).WithRelation("Reg", relation.Build(1, rows))
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
	t.Logf("chain Eval: %.0f allocs at n=1, %.0f at n=2, %.0f at n=1000", one, two, thousand)
	if two != thousand {
		t.Errorf("chain Eval allocates %.0f objects at n=2 but %.0f at n=1000", two, thousand)
	}
	// A one-row result is one object: relation, tuple header and cells.
	if one != 1 {
		t.Errorf("chain Eval allocates %.0f objects at n=1, want 1", one)
	}
}
