package pt

import (
	"testing"

	"ptx/internal/logic"
	"ptx/internal/relation"
)

// TestNoPlanEquivalence: compiled plans and the reference evaluator
// that Options.NoPlan (-plan=off) selects must produce byte-identical
// documents on a transducer whose rule queries exercise joins, filters
// and recursion.
func TestNoPlanEquivalence(t *testing.T) {
	s := relation.NewSchema().MustDeclare("E", 2)
	tr := New("t", s, "q0", "r")
	tr.DeclareTag("a", 2)
	tr.DeclareTag("b", 1)
	y, z, w := logic.Var("y"), logic.Var("z"), logic.Var("w")
	tc := &logic.Fixpoint{
		Rel:  "S",
		Vars: []logic.Var{x, y},
		Body: &logic.Or{
			L: logic.R("E", x, y),
			R: &logic.Exists{Bound: []logic.Var{w}, F: logic.Conj(logic.R("S", x, w), logic.R("E", w, y))},
		},
		Args: []logic.Term{x, y},
	}
	tr.AddRule("q0", "r",
		Item("q", "a", logic.MustQuery([]logic.Var{x}, []logic.Var{y}, tc)),
		Item("q2", "b", logic.MustQuery([]logic.Var{x}, nil,
			logic.Ex([]logic.Var{y, z},
				logic.Conj(logic.R("E", x, y), logic.R("E", y, z), logic.NeqT(x, z))))))
	tr.AddRule("q", "a")
	tr.AddRule("q2", "b")

	inst := relation.NewInstance(s)
	inst.Add("E", "1", "2")
	inst.Add("E", "2", "3")
	inst.Add("E", "3", "1")
	inst.Add("E", "3", "4")

	planned, err := tr.Output(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := tr.Output(inst, Options{NoPlan: true})
	if err != nil {
		t.Fatal(err)
	}
	if p, o := planned.Canonical(), oracle.Canonical(); p != o {
		t.Fatalf("NoPlan output differs:\nplan   %s\noracle %s", p, o)
	}
}
