package eval

import (
	"testing"

	"ptx/internal/logic"
	"ptx/internal/relation"
	"ptx/internal/value"
)

// fuzzDecoder turns a fuzz byte stream into a small instance and a
// random CQ/FO formula, deterministically: the same bytes always yield
// the same workload, so crashes are replayable from the corpus.
type fuzzDecoder struct {
	data []byte
	pos  int
}

func (d *fuzzDecoder) byte() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

// instance decodes a few A(1) and E(2) facts over the domain {0,1,2}.
// One decode path leaves the instance (and hence the active domain)
// completely empty — evaluation over an empty domain is a standing
// edge case for complements, quantifier expansion and fixpoints.
func (d *fuzzDecoder) instance(s *relation.Schema) *relation.Instance {
	inst := relation.NewInstance(s)
	if d.byte()%5 == 0 {
		return inst
	}
	for k := int(d.byte()) % 4; k > 0; k-- {
		inst.Add("A", string(value.Of(int(d.byte())%3)))
	}
	for k := int(d.byte()) % 5; k > 0; k-- {
		inst.Add("E", string(value.Of(int(d.byte())%3)), string(value.Of(int(d.byte())%3)))
	}
	inst.Add("A", "0") // keep the active domain nonempty
	return inst
}

// formula decodes a CQ/FO formula of bounded depth over A, E, x/y/z and
// the constants 0..2. Depth bounds keep the naive evaluator's
// complement/quantifier blowup affordable per fuzz exec.
func (d *fuzzDecoder) formula(depth int) logic.Formula {
	vars := []logic.Var{"x", "y", "z"}
	v := func() logic.Var { return vars[int(d.byte())%len(vars)] }
	term := func() logic.Term {
		if d.byte()%4 == 0 {
			return logic.Const(value.Of(int(d.byte()) % 3))
		}
		return v()
	}
	if depth <= 0 {
		switch d.byte() % 5 {
		case 0:
			return logic.R("A", term())
		case 1:
			return logic.R("E", term(), term())
		case 2:
			return logic.EqT(term(), term())
		case 3:
			return logic.NeqT(term(), term())
		default:
			return logic.True
		}
	}
	switch d.byte() % 9 {
	case 0:
		return &logic.And{L: d.formula(depth - 1), R: d.formula(depth - 1)}
	case 1:
		return &logic.Or{L: d.formula(depth - 1), R: d.formula(depth - 1)}
	case 2:
		return &logic.Not{F: d.formula(depth - 1)}
	case 3:
		return logic.Ex([]logic.Var{v()}, d.formula(depth-1))
	case 4:
		return logic.All([]logic.Var{v()}, d.formula(depth-1))
	case 5:
		// Transitive closure of E applied to decoded terms: the
		// canonical recursive fixpoint (IFP).
		u, w, s := logic.Var("u"), logic.Var("w"), logic.Var("s")
		return &logic.Fixpoint{
			Rel:  "S",
			Vars: []logic.Var{u, w},
			Body: &logic.Or{
				L: logic.R("E", u, w),
				R: logic.Ex([]logic.Var{s},
					logic.Conj(logic.R("S", u, s), logic.R("E", s, w))),
			},
			Args: []logic.Term{term(), term()},
		}
	case 6:
		// Non-recursive fixpoint over a decoded body: converges in one
		// or two iterations but exercises stage bookkeeping, variable
		// expansion inside the body and frees escaping the binder.
		u := logic.Var("u")
		return &logic.Fixpoint{
			Rel:  "S",
			Vars: []logic.Var{u},
			Body: &logic.Or{L: logic.R("A", u), R: d.formula(0)},
			Args: []logic.Term{term()},
		}
	default:
		return d.formula(0)
	}
}

// FuzzDifferentialEval is the differential oracle of this package: on
// every decoded (instance, formula) pair, the compiled-plan evaluator
// (EvalQuery, and Eval/EvalSentence at the formula level), the textbook
// active-domain evaluator (EvalQueryNaive and EvalNaive, ¬ via
// complement, ∀ via ¬∃¬) and the memoized evaluator (Memo Get/Put as
// pt's Expander drives them, twice — the second call exercising the hit
// path) must agree exactly.
// The grammar includes fixpoints and one decode path yields an entirely
// empty instance.
func FuzzDifferentialEval(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 2, 4, 0, 1, 1, 2, 2, 0, 0, 0, 1, 2, 3, 4, 5})
	f.Add([]byte("differential eval seed: quantifiers and negation"))
	f.Add([]byte{1, 2, 2, 1, 0, 2, 4, 3, 3, 2, 1, 0, 255, 128, 64, 32, 16, 8})
	// Seeds biased toward the fixpoint grammar cases (5 and 6 mod 9)
	// and the empty-instance decode path (first byte ≡ 0 mod 5).
	f.Add([]byte{1, 2, 1, 0, 1, 1, 2, 5, 1, 0, 5, 2, 1, 14, 0, 1, 2, 3})
	f.Add([]byte{0, 5, 1, 1, 14, 2, 0, 1, 5, 0, 2, 1})
	f.Add([]byte{5, 3, 1, 2, 0, 4, 1, 2, 1, 0, 0, 5, 14, 5, 14, 2, 2, 1, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := &fuzzDecoder{data: data}
		s := relation.NewSchema().MustDeclare("A", 1).MustDeclare("E", 2)
		inst := d.instance(s)
		fla := d.formula(1 + int(d.byte())%3)
		free := SortedVars(logic.FreeVars(fla))
		q, err := logic.NewQuery(nil, free, fla)
		if err != nil {
			t.Skip() // e.g. sentences with empty heads
		}
		env := NewEnv(inst)

		opt, err1 := EvalQuery(q, env)
		naive, err2 := EvalQueryNaive(q, env)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error mismatch: optimized %v, naive %v on %s", err1, err2, fla)
		}
		if err1 != nil {
			return
		}
		if !opt.Equal(naive) {
			t.Fatalf("optimized and naive disagree on %s\n optimized %s\n naive     %s\n instance %s",
				fla, opt, naive, inst)
		}
		formulaArm(t, fla, env)

		m := NewMemo(0)
		reg := relation.New(0)
		cold := evalMemo(t, q, env, reg, m)
		warm := evalMemo(t, q, env, reg, m)
		if !cold.Equal(opt) || !warm.Equal(opt) {
			t.Fatalf("memoized evaluation disagrees on %s", fla)
		}
		if hits, _, _ := m.Stats(); hits != 1 {
			t.Fatalf("second memo call should hit (hits=%d) on %s", hits, fla)
		}
	})
}

// formulaArm checks Eval against EvalNaive on fla — EvalSentence when
// fla is a sentence — with the naive bindings aligned to Eval's
// FreeVars column order. EvalNaive drops a free variable that occurs
// only inside a fixpoint body, so its bindings are first expanded to
// FreeVars over the active domain, the reading Eval's head gives it.
func formulaArm(t *testing.T, fla logic.Formula, env *Env) {
	t.Helper()
	slow, err := EvalNaive(fla, env)
	if err != nil {
		t.Fatalf("EvalNaive: %v on %s", err, fla)
	}
	free := logic.FreeVars(fla)
	ev := &evaluator{env: env, ctl: env.ctl, adom: env.Domain(logic.Constants(fla))}
	if slow, err = ev.expandTo(slow, free); err != nil {
		t.Fatalf("expand naive bindings: %v on %s", err, fla)
	}
	if len(free) == 0 {
		ok, err := EvalSentence(fla, env)
		if err != nil {
			t.Fatalf("EvalSentence: %v on %s", err, fla)
		}
		if ok != !slow.Rel.Empty() {
			t.Fatalf("EvalSentence = %v, naive %s on %s", ok, slow.Rel, fla)
		}
		return
	}
	fast, err := Eval(fla, env)
	if err != nil {
		t.Fatalf("Eval: %v on %s", err, fla)
	}
	idx := slow.varIndex()
	cols := make([]int, len(free))
	for i, v := range free {
		cols[i] = idx[v]
	}
	if len(slow.Vars) != len(free) || !fast.Rel.Equal(slow.Rel.Project(cols...)) {
		t.Fatalf("Eval and EvalNaive disagree on %s\n plan  %v %s\n naive %v %s",
			fla, fast.Vars, fast.Rel, slow.Vars, slow.Rel)
	}
}
