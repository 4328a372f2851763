// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations for the design choices called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
package ptx

import (
	"fmt"
	"math/rand"
	"testing"

	"ptx/internal/datalog"
	"ptx/internal/decide"
	"ptx/internal/dtd"
	"ptx/internal/eval"
	"ptx/internal/families"
	"ptx/internal/langs"
	"ptx/internal/logic"
	"ptx/internal/pt"
	"ptx/internal/reduction"
	"ptx/internal/registrar"
	"ptx/internal/relation"
	"ptx/internal/typecheck"
	"ptx/internal/value"
	"ptx/internal/xmltree"
)

// --- Figure 1: the registrar views -------------------------------------

func benchView(b *testing.B, tr *pt.Transducer, inst *relation.Instance) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Output(inst, pt.Options{MaxNodes: 1_000_000}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1Tau1(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("chain%d", n), func(b *testing.B) {
			benchView(b, registrar.Tau1(), registrar.ChainInstance(n))
		})
	}
}

func BenchmarkFig1Tau2(b *testing.B) {
	for _, n := range []int{4, 8} {
		b.Run(fmt.Sprintf("chain%d", n), func(b *testing.B) {
			benchView(b, registrar.Tau2(), registrar.ChainInstance(n))
		})
	}
}

func BenchmarkFig1Tau3(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("chain%d", n), func(b *testing.B) {
			benchView(b, registrar.Tau3(), registrar.ChainInstance(n))
		})
	}
}

// --- Table I: language representatives ----------------------------------

func BenchmarkTable1Languages(b *testing.B) {
	inst := registrar.SampleInstance()
	for _, row := range langs.TableI() {
		tr, err := row.View()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(row.Method, func(b *testing.B) {
			benchView(b, tr, inst)
		})
	}
}

// --- Table II: decision problems ----------------------------------------

// chainTransducer scales the PTIME emptiness input.
func chainTransducer(n int) *pt.Transducer {
	s := relation.NewSchema().MustDeclare("R1", 1)
	x := logic.Var("x")
	t := pt.New(fmt.Sprintf("chain%d", n), s, "q0", "r")
	for i := 0; i < n; i++ {
		t.DeclareTag(fmt.Sprintf("a%d", i), 1)
	}
	t.AddRule("q0", "r", pt.Item("q1", "a0",
		logic.MustQuery([]logic.Var{x}, nil, logic.R("R1", x))))
	for i := 1; i < n; i++ {
		t.AddRule(fmt.Sprintf("q%d", i), fmt.Sprintf("a%d", i-1),
			pt.Item(fmt.Sprintf("q%d", i+1), fmt.Sprintf("a%d", i),
				logic.MustQuery([]logic.Var{x}, nil, logic.R(pt.RegRel, x))))
	}
	return t
}

func BenchmarkTable2EmptinessPTIME(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		tr := chainTransducer(n)
		b.Run(fmt.Sprintf("rules%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := decide.Emptiness(tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable2EmptinessNP(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, clauses := range []int{2, 3, 4} {
		f := randomCNF(rng, 3, clauses)
		tr, err := reduction.EmptinessFrom3SAT(f)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("clauses%d", clauses), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := decide.Emptiness(tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable2MembershipSigma2p(b *testing.B) {
	tr := chainTransducer(2)
	for _, tree := range []string{"r(a0(a1))", "r(a0(a1),a0(a1))"} {
		target := xmltree.MustParse(tree)
		b.Run(tree, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := decide.Membership(tr, target, decide.MembershipOptions{
					FreshValues: 3, MaxTuplesPerRel: 3, MaxCandidates: 500000})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable2EquivalencePi3p(b *testing.B) {
	t1, t2 := chainTransducer(3), chainTransducer(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decide.Equivalence(t1, t2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table III: expressiveness translations ------------------------------

func BenchmarkTable3TransducerToLinDatalog(b *testing.B) {
	tr := registrar.Tau1()
	prog, err := datalog.FromTransducer(tr, "course")
	if err != nil {
		b.Fatal(err)
	}
	inst := registrar.ChainInstance(6)
	b.Run("transducer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tr.OutputRelation(inst, "course", pt.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lindatalog", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prog.Eval(inst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkTable3LinDatalogToTransducer(b *testing.B) {
	prog := tcProgram()
	tr, err := datalog.ToTransducer(prog)
	if err != nil {
		b.Fatal(err)
	}
	inst := randomGraph(rand.New(rand.NewSource(3)), 5, 8)
	b.Run("lindatalog", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prog.Eval(inst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("transducer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tr.OutputRelation(inst, "ans", pt.Options{MaxNodes: 500000}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Proposition 1: blowup families --------------------------------------

func BenchmarkProp1Exp(b *testing.B) {
	tr := families.UnfoldTransducer()
	for _, n := range []int{4, 6, 8} {
		inst := families.DiamondChain(n)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tr.Output(inst, pt.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkProp1DoubleExp(b *testing.B) {
	tr := families.CounterTransducer()
	for _, n := range []int{1, 2, 3} {
		inst := families.CounterInstance(n)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tr.Output(inst, pt.Options{MaxNodes: 5_000_000}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Proposition 3: PTIME data complexity --------------------------------

func BenchmarkProp3Ptime(b *testing.B) {
	tr, err := langs.ForXMLView()
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{20, 40, 80} {
		inst := registrar.ChainInstance(n)
		b.Run(fmt.Sprintf("courses%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tr.Output(inst, pt.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Theorem 5: DTD generation -------------------------------------------

func BenchmarkThm5DTDGen(b *testing.B) {
	// Compile a recursive course DTD per Theorem 5 and regenerate an
	// encoded conforming tree through the transducer (φd check included).
	d := dtd.New("db", map[string]dtd.Regex{
		"db":     dtd.Rep(dtd.S("course")),
		"course": dtd.Cat(dtd.S("cno"), dtd.S("title"), dtd.Maybe(dtd.S("prereq"))),
		"prereq": dtd.Rep(dtd.S("course")),
	})
	n, err := dtd.Normalize(d)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := dtd.Transducer(n)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var sample *xmltree.Tree
	for sample == nil || sample.Size() > 40 || sample.Size() < 8 {
		sample = n.DTD.RandomTree(rng, 8, 2)
	}
	inst := dtd.EncodeTree(sample)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Output(inst, pt.Options{MaxNodes: 100000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTypecheck measures the sound DTD typechecker on τ1.
func BenchmarkTypecheck(b *testing.B) {
	d := dtd.New("db", map[string]dtd.Regex{
		"db":     dtd.Rep(dtd.S("course")),
		"course": dtd.Cat(dtd.S("cno"), dtd.S("title"), dtd.S("prereq")),
		"prereq": dtd.Rep(dtd.S("course")),
	})
	tr := registrar.Tau1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v, err := typecheck.Check(tr, d)
		if err != nil || v != nil {
			b.Fatalf("unexpected: %v %v", v, err)
		}
	}
}

// --- Ablations ------------------------------------------------------------

// BenchmarkAblationEval compares Eval, a compiled plan (negation
// pushdown + filter joins), against the naive evaluator on an FO
// formula with an 8-variable universal quantifier — the shape of the
// Theorem 5 well-formedness sentence.
func BenchmarkAblationEval(b *testing.B) {
	s := relation.NewSchema().MustDeclare("R", 4)
	inst := relation.NewInstance(s)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 12; i++ {
		inst.Add("R", string(value.Of(rng.Intn(6))), string(value.Of(rng.Intn(6))),
			string(value.Of(rng.Intn(6))), string(value.Of(rng.Intn(6))))
	}
	vs := make([]logic.Var, 8)
	ts := make([]logic.Term, 8)
	for i := range vs {
		vs[i] = logic.Var(fmt.Sprintf("v%d", i))
		ts[i] = vs[i]
	}
	// ∀v̄ (R(v0..v3) ∧ R(v4..v7) ∧ v0=v4 → v1=v5)
	f := logic.All(vs, logic.Disj(
		&logic.Not{F: logic.Conj(
			logic.R("R", ts[0], ts[1], ts[2], ts[3]),
			logic.R("R", ts[4], ts[5], ts[6], ts[7]),
			logic.EqT(vs[0], vs[4]),
		)},
		logic.EqT(vs[1], vs[5]),
	))
	env := eval.NewEnv(inst)
	b.Run("optimized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eval.Eval(f, env); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The naive evaluator complements over adom^8; keep the domain tiny
	// so the baseline finishes.
	small := relation.NewInstance(s)
	small.Add("R", "0", "1", "0", "1")
	small.Add("R", "1", "0", "1", "0")
	envSmall := eval.NewEnv(small)
	b.Run("naive-tiny-domain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eval.EvalNaive(f, envSmall); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSeminaive compares semi-naive and naive datalog
// evaluation on transitive closure over a long chain.
func BenchmarkAblationSeminaive(b *testing.B) {
	prog := tcProgram()
	inst := relation.NewInstance(relation.NewSchema().MustDeclare("E", 2))
	for i := 0; i < 24; i++ {
		inst.Add("E", fmt.Sprintf("n%02d", i), fmt.Sprintf("n%02d", i+1))
	}
	b.Run("seminaive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prog.Eval(inst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prog.EvalNaive(inst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- helpers --------------------------------------------------------------

func tcProgram() *datalog.Program {
	x, y, z := logic.Var("x"), logic.Var("y"), logic.Var("z")
	return &datalog.Program{
		EDB:    relation.NewSchema().MustDeclare("E", 2),
		Output: "tc",
		Rules: []*datalog.Rule{
			{Head: logic.R("tc", x, y), Body: []*logic.Atom{logic.R("E", x, y)}},
			{Head: logic.R("tc", x, z), Body: []*logic.Atom{logic.R("tc", x, y), logic.R("E", y, z)}},
		},
	}
}

func randomGraph(rng *rand.Rand, n, m int) *relation.Instance {
	inst := relation.NewInstance(relation.NewSchema().MustDeclare("E", 2))
	for k := 0; k < m; k++ {
		inst.Add("E", string(value.Of(rng.Intn(n))), string(value.Of(rng.Intn(n))))
	}
	return inst
}

func randomCNF(rng *rand.Rand, vars, clauses int) *reduction.CNF {
	f := &reduction.CNF{NumVars: vars}
	for i := 0; i < clauses; i++ {
		var c reduction.Clause
		for j := 0; j < 3; j++ {
			c[j] = reduction.Literal{Var: 1 + rng.Intn(vars), Neg: rng.Intn(2) == 1}
		}
		f.Clauses = append(f.Clauses, c)
	}
	return f
}
