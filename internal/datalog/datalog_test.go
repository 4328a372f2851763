package datalog

import (
	"fmt"
	"math/rand"
	"testing"

	"ptx/internal/cq"
	"ptx/internal/logic"
	"ptx/internal/pt"
	"ptx/internal/registrar"
	"ptx/internal/relation"
	"ptx/internal/value"
)

var (
	x = logic.Var("x")
	y = logic.Var("y")
	z = logic.Var("z")
)

// tcProgram is the canonical linear program: transitive closure of E.
func tcProgram() *Program {
	schema := relation.NewSchema().MustDeclare("E", 2)
	return &Program{
		EDB:    schema,
		Output: "tc",
		Rules: []*Rule{
			{Head: logic.R("tc", x, y), Body: []*logic.Atom{logic.R("E", x, y)}},
			{Head: logic.R("tc", x, z), Body: []*logic.Atom{logic.R("tc", x, y), logic.R("E", y, z)}},
		},
	}
}

func graph(edges ...[2]string) *relation.Instance {
	i := relation.NewInstance(relation.NewSchema().MustDeclare("E", 2))
	for _, e := range edges {
		i.Add("E", e[0], e[1])
	}
	return i
}

func randomGraph(seed int64, n, m int) *relation.Instance {
	rng := rand.New(rand.NewSource(seed))
	i := relation.NewInstance(relation.NewSchema().MustDeclare("E", 2))
	for k := 0; k < m; k++ {
		i.Add("E", string(value.Of(rng.Intn(n))), string(value.Of(rng.Intn(n))))
	}
	return i
}

func TestTCEval(t *testing.T) {
	p := tcProgram()
	inst := graph([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "d"})
	out, err := p.Eval(inst)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 6 {
		t.Fatalf("TC = %s", out)
	}
	if !out.Contains(value.Tuple{"a", "d"}) {
		t.Fatalf("TC missing (a,d)")
	}
}

func TestTCOnCycle(t *testing.T) {
	p := tcProgram()
	inst := graph([2]string{"a", "b"}, [2]string{"b", "a"})
	out, err := p.Eval(inst)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 { // (a,b),(b,a),(a,a),(b,b)
		t.Fatalf("TC on 2-cycle = %s", out)
	}
}

func TestSemiNaiveMatchesNaive(t *testing.T) {
	p := tcProgram()
	for seed := int64(0); seed < 20; seed++ {
		inst := randomGraph(seed, 6, 10)
		fast, err := p.Eval(inst)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := p.EvalNaive(inst)
		if err != nil {
			t.Fatal(err)
		}
		if !fast.Equal(slow) {
			t.Fatalf("seed %d: semi-naive %s vs naive %s", seed, fast, slow)
		}
	}
}

func TestStructuralAnalysis(t *testing.T) {
	p := tcProgram()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !p.IsLinear() {
		t.Error("TC is linear")
	}
	if p.IsNonrecursive() {
		t.Error("TC is recursive")
	}
	if p.IsDeterministic() {
		t.Error("TC has two rules for tc")
	}
	// Nonlinear variant: tc(x,z) ← tc(x,y), tc(y,z).
	nl := &Program{
		EDB:    p.EDB,
		Output: "tc",
		Rules: []*Rule{
			{Head: logic.R("tc", x, y), Body: []*logic.Atom{logic.R("E", x, y)}},
			{Head: logic.R("tc", x, z), Body: []*logic.Atom{logic.R("tc", x, y), logic.R("tc", y, z)}},
		},
	}
	if nl.IsLinear() {
		t.Error("doubled TC is not linear")
	}
	// Nonlinear evaluation still works and agrees with linear TC.
	inst := randomGraph(3, 5, 8)
	a, err := p.Eval(inst)
	if err != nil {
		t.Fatal(err)
	}
	b, err := nl.Eval(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatalf("linear and nonlinear TC disagree: %s vs %s", a, b)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	schema := relation.NewSchema().MustDeclare("E", 2)
	// Unbound head variable.
	bad := &Program{EDB: schema, Output: "p", Rules: []*Rule{
		{Head: logic.R("p", x, y), Body: []*logic.Atom{logic.R("E", x, x)}},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("unbound head variable should fail validation")
	}
	// EDB head.
	bad2 := &Program{EDB: schema, Output: "E", Rules: []*Rule{
		{Head: logic.R("E", x, y), Body: []*logic.Atom{logic.R("E", y, x)}},
	}}
	if err := bad2.Validate(); err == nil {
		t.Error("EDB head should fail validation")
	}
	// Arity clash.
	bad3 := &Program{EDB: schema, Output: "p", Rules: []*Rule{
		{Head: logic.R("p", x), Body: []*logic.Atom{logic.R("E", x, x)}},
		{Head: logic.R("p", x, y), Body: []*logic.Atom{logic.R("E", x, y)}},
	}}
	if err := bad3.Validate(); err == nil {
		t.Error("arity clash should fail validation")
	}
}

func TestConstraintsInRules(t *testing.T) {
	schema := relation.NewSchema().MustDeclare("E", 2)
	// Proper paths only: p(x,y) ← E(x,y), x≠y.
	p := &Program{EDB: schema, Output: "p", Rules: []*Rule{
		{Head: logic.R("p", x, y), Body: []*logic.Atom{logic.R("E", x, y)},
			Constraints: []cq.Constraint{{L: x, R: y, Eq: false}}},
	}}
	inst := graph([2]string{"a", "a"}, [2]string{"a", "b"})
	out, err := p.Eval(inst)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || !out.Contains(value.Tuple{"a", "b"}) {
		t.Fatalf("constrained rule = %s", out)
	}
}

func TestConstantHeads(t *testing.T) {
	schema := relation.NewSchema().MustDeclare("E", 2)
	p := &Program{EDB: schema, Output: "flag", Rules: []*Rule{
		{Head: &logic.Atom{Rel: "flag", Args: []logic.Term{logic.Const("yes")}},
			Body: []*logic.Atom{logic.R("E", x, y)}},
	}}
	inst := graph([2]string{"a", "b"})
	out, err := p.Eval(inst)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || !out.Contains(value.Tuple{"yes"}) {
		t.Fatalf("constant head = %s", out)
	}
}

// --- Theorem 3(2): PT(CQ, tuple, normal) = LinDatalog -----------------

func TestFromTransducerTau1(t *testing.T) {
	tr := registrar.Tau1()
	prog, err := FromTransducer(tr, "course")
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	if !prog.IsLinear() {
		t.Error("translation must be linear")
	}
	for n := 1; n <= 5; n++ {
		inst := registrar.ChainInstance(n)
		fromTr, err := tr.OutputRelation(inst, "course", pt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fromDl, err := prog.Eval(inst)
		if err != nil {
			t.Fatal(err)
		}
		if !fromTr.Equal(fromDl) {
			t.Fatalf("chain(%d): transducer %s vs datalog %s", n, fromTr, fromDl)
		}
	}
}

func TestFromTransducerTau1Cycle(t *testing.T) {
	tr := registrar.Tau1()
	prog, err := FromTransducer(tr, "course")
	if err != nil {
		t.Fatal(err)
	}
	for n := 2; n <= 4; n++ {
		inst := registrar.CycleInstance(n)
		fromTr, err := tr.OutputRelation(inst, "course", pt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fromDl, err := prog.Eval(inst)
		if err != nil {
			t.Fatal(err)
		}
		if !fromTr.Equal(fromDl) {
			t.Fatalf("cycle(%d): transducer %s vs datalog %s", n, fromTr, fromDl)
		}
	}
}

func TestFromTransducerRejectsFO(t *testing.T) {
	if _, err := FromTransducer(registrar.Tau2(), "course"); err == nil {
		t.Error("τ2 is FO/relation; translation must refuse")
	}
}

func TestToTransducerTC(t *testing.T) {
	p := tcProgram()
	tr, err := ToTransducer(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	cl := tr.Classify()
	if cl.Logic != logic.CQ || cl.Store != pt.TupleStore || cl.Output != pt.NormalOutput {
		t.Fatalf("translated transducer class %s, want PT(CQ, tuple, normal)", cl)
	}
	for seed := int64(0); seed < 12; seed++ {
		inst := randomGraph(seed, 5, 7)
		fromDl, err := p.Eval(inst)
		if err != nil {
			t.Fatal(err)
		}
		fromTr, err := tr.OutputRelation(inst, "ans", pt.Options{MaxNodes: 500000})
		if err != nil {
			t.Fatal(err)
		}
		if !fromDl.Equal(fromTr) {
			t.Fatalf("seed %d: datalog %s vs transducer %s", seed, fromDl, fromTr)
		}
	}
}

func TestRoundTripTransducerDatalogTransducer(t *testing.T) {
	// τ1 → LinDatalog → transducer: all three agree on the output
	// relation.
	tr := registrar.Tau1()
	prog, err := FromTransducer(tr, "course")
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := ToTransducer(prog)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 4; n++ {
		inst := registrar.ChainInstance(n)
		a, err := tr.OutputRelation(inst, "course", pt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := tr2.OutputRelation(inst, "ans", pt.Options{MaxNodes: 500000})
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("chain(%d): %s vs %s", n, a, b)
		}
	}
}

func TestToTransducerRejectsNonlinear(t *testing.T) {
	nl := &Program{
		EDB:    relation.NewSchema().MustDeclare("E", 2),
		Output: "tc",
		Rules: []*Rule{
			{Head: logic.R("tc", x, y), Body: []*logic.Atom{logic.R("E", x, y)}},
			{Head: logic.R("tc", x, z), Body: []*logic.Atom{logic.R("tc", x, y), logic.R("tc", y, z)}},
		},
	}
	if _, err := ToTransducer(nl); err == nil {
		t.Error("nonlinear program must be rejected")
	}
}

func TestRuleString(t *testing.T) {
	r := &Rule{Head: logic.R("p", x), Body: []*logic.Atom{logic.R("E", x, y)},
		Constraints: []cq.Constraint{{L: x, R: y, Eq: false}}}
	want := "p(x) <- E(x,y), x!=y"
	if r.String() != want {
		t.Fatalf("String = %s", r)
	}
}

func TestLargerChainAgreement(t *testing.T) {
	// Longer chains exercise multi-round semi-naive evaluation.
	p := tcProgram()
	edges := make([][2]string, 0, 12)
	for i := 0; i < 12; i++ {
		edges = append(edges, [2]string{fmt.Sprintf("n%02d", i), fmt.Sprintf("n%02d", i+1)})
	}
	inst := graph(edges...)
	out, err := p.Eval(inst)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 13*12/2 {
		t.Fatalf("TC of 12-chain has %d pairs, want %d", out.Len(), 13*12/2)
	}
}

// TestFromTransducerRegisterArguments covers the three shapes a Reg
// atom's arguments take in the translation: distinct variables become
// the parent atom's arguments with no equality left, while a repeated
// variable or a constant keeps one. Each translation agrees with the
// transducer's output relation.
func TestFromTransducerRegisterArguments(t *testing.T) {
	s := relation.NewSchema().MustDeclare("E", 2)
	tr := pt.New("regargs", s, "q0", "r")
	tr.DeclareTag("a", 2).DeclareTag("b", 1).DeclareTag("c", 1).DeclareTag("d", 1)
	tr.AddRule("q0", "r", pt.Item("q", "a", logic.MustQuery([]logic.Var{x, y}, nil, logic.R("E", x, y))))
	tr.AddRule("q", "a",
		pt.Item("q", "b", logic.MustQuery([]logic.Var{x}, nil, logic.R(pt.RegRel, x, x))),
		pt.Item("q", "c", logic.MustQuery([]logic.Var{y}, nil, logic.R(pt.RegRel, logic.Const("1"), y))),
		pt.Item("q", "d", logic.MustQuery([]logic.Var{z}, nil,
			logic.Ex([]logic.Var{x, y}, logic.Conj(logic.R(pt.RegRel, x, y), logic.R("E", y, z))))))
	for label, wantEqs := range map[string]bool{"b": true, "c": true, "d": false} {
		prog, err := FromTransducer(tr, label)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range prog.Rules {
			if r.Head.Rel == "P_q_"+label && (len(r.Constraints) > 0) != wantEqs {
				t.Errorf("%s: rule %s, want equalities %v", label, r, wantEqs)
			}
		}
		for seed := int64(0); seed < 10; seed++ {
			inst := randomGraph(seed, 3, 5)
			fromDl, err := prog.Eval(inst)
			if err != nil {
				t.Fatal(err)
			}
			fromTr, err := tr.OutputRelation(inst, label, pt.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !fromDl.Equal(fromTr) {
				t.Fatalf("%s, seed %d: datalog %s vs transducer %s\n%v", label, seed, fromDl, fromTr, prog.Rules)
			}
		}
	}
}
