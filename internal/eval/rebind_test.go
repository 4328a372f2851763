package eval

import (
	"testing"

	"ptx/internal/logic"
	"ptx/internal/relation"
)

// TestRebindDifferential: one Env re-pointed at a sequence of registers
// with different active domains answers domain-sensitive queries (¬, ∀,
// IFP, a head variable free of the formula) exactly as a fresh
// WithRelation Env per register does under the reference evaluator.
// The sequence revisits a register object and an equal copy of it, so
// the merged-domain cache is both reused and revalidated.
func TestRebindDifferential(t *testing.T) {
	inst := graphInstance([2]string{"a", "b"}, [2]string{"b", "c"})
	u, v, w := logic.Var("u"), logic.Var("v"), logic.Var("w")
	edge := func(a, b logic.Term) logic.Formula { return logic.Disj(logic.R("E", a, b), logic.R("Reg", a, b)) }
	queries := map[string]*logic.Query{
		"not": logic.MustQuery(nil, []logic.Var{x, y}, &logic.Not{F: logic.R("Reg", x, y)}),
		"forall": logic.MustQuery([]logic.Var{x}, nil,
			logic.All([]logic.Var{y}, logic.Disj(&logic.Not{F: logic.R("E", x, y)}, logic.R("Reg", x, y)))),
		"ifp": logic.MustQuery([]logic.Var{x}, []logic.Var{y}, &logic.Fixpoint{
			Rel: "S", Vars: []logic.Var{u, v},
			Body: logic.Disj(edge(u, v), logic.Ex([]logic.Var{w}, logic.Conj(logic.R("S", u, w), edge(w, v)))),
			Args: []logic.Term{x, y},
		}),
		"free-head": logic.MustQuery([]logic.Var{x}, []logic.Var{y}, logic.R("Reg", x, x)),
	}
	first := relation.FromRows([]string{"a", "b"})
	regs := []*relation.Relation{
		first,
		relation.FromRows([]string{"p", "q"}, []string{"q", "a"}),
		relation.New(2),
		first,
		relation.FromRows([]string{"a", "b"}),
		relation.FromRows([]string{"z", "z"}, []string{"c", "c"}),
		relation.FromRows([]string{"z", "z"}).GroupByPrefix(2)[0],
	}
	for name, q := range queries {
		env := NewEnv(inst).WithRelation("Reg", relation.New(2))
		for i, reg := range regs {
			env.Rebind("Reg", reg)
			want, err := EvalQueryNaive(q, NewEnv(inst).WithRelation("Reg", reg))
			if err != nil {
				t.Fatalf("%s, register %d: fresh Env: %v", name, i, err)
			}
			for _, eval := range []struct {
				name string
				f    func(*logic.Query, *Env) (*relation.Relation, error)
			}{{"plan", EvalQuery}, {"naive", EvalQueryNaive}} {
				got, err := eval.f(q, env)
				if err != nil {
					t.Fatalf("%s, register %d, %s: re-pointed Env: %v", name, i, eval.name, err)
				}
				if !got.Equal(want) {
					t.Errorf("%s, register %d %v, %s: re-pointed Env gives %v, fresh Env %v", name, i, reg, eval.name, got, want)
				}
			}
		}
	}
}

// TestRebindUnboundPanics: Rebind only re-points an existing binding.
func TestRebindUnboundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Rebind of an unbound name did not panic")
		}
	}()
	NewEnv(graphInstance()).Rebind("Reg", relation.New(1))
}
