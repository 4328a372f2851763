package plan_test

import (
	"testing"

	"ptx/internal/eval"
	"ptx/internal/logic"
	"ptx/internal/plan"
	"ptx/internal/relation"
	"ptx/internal/value"
)

// conjDomain is the value pool of the FuzzPlanConj instances; the
// decoder's constants add "e", which no relation holds.
var conjDomain = []string{"a", "b", "c", "d"}

// conjPairs are the candidate rows of a binary register.
var conjPairs = [][]string{
	{"a", "b"}, {"b", "a"}, {"a", "a"}, {"c", "d"},
	{"d", "c"}, {"b", "c"}, {"c", "c"}, {"d", "a"},
}

// conjInstance is the fixed base data: E has a hub (a), a self-loop and
// a sink (d); T has repeated and constant-heavy columns, and more than
// 8 tuples, so a probe into it goes through a column index where one
// into E or Reg scans.
func conjInstance() *relation.Instance {
	inst := relation.NewInstance(relation.NewSchema().MustDeclare("E", 2).MustDeclare("T", 3))
	for _, e := range [][]string{{"a", "b"}, {"a", "c"}, {"a", "d"}, {"a", "a"}, {"b", "c"}, {"c", "a"}, {"c", "d"}} {
		inst.Add("E", e[0], e[1])
	}
	for _, tr := range [][]string{
		{"a", "b", "c"}, {"a", "a", "b"}, {"b", "b", "b"}, {"c", "a", "c"}, {"d", "c", "a"}, {"a", "c", "c"},
		{"b", "d", "a"}, {"c", "c", "c"}, {"d", "a", "b"}, {"b", "a", "d"}, {"d", "d", "c"}, {"c", "b", "a"},
	} {
		inst.Add("T", tr[0], tr[1], tr[2])
	}
	return inst
}

// conjDecoder reads fuzz bytes; past the end it yields zeros.
type conjDecoder struct {
	data []byte
	pos  int
}

func (d *conjDecoder) next() int {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return int(b)
}

func (d *conjDecoder) term() logic.Term {
	t := d.next() % 8
	if t < 4 {
		return logic.Var([]string{"x", "y", "z", "w"}[t])
	}
	return logic.Const([]string{"a", "b", "c", "e"}[t-4])
}

func (d *conjDecoder) atom(regArity int) *logic.Atom {
	rel, arity := "Reg", regArity
	switch d.next() % 3 {
	case 1:
		rel, arity = "E", 2
	case 2:
		rel, arity = "T", 3
	}
	args := make([]logic.Term, arity)
	for i := range args {
		args[i] = d.term()
	}
	return logic.R(rel, args...)
}

// decodeConj builds a 2–4-atom conjunction over Reg (arity 1 or 2, its
// rows chosen by a bitmask), E/2 and T/3, with an optional ≠ or ¬atom
// conjunct. Every free variable is a head variable; a flag adds w to
// the head when the formula does not mention it, so the head expansion
// runs too.
func decodeConj(data []byte) (*logic.Query, *eval.Env) {
	d := &conjDecoder{data: data}
	regArity := 1 + d.next()%2
	mask := d.next()
	reg := relation.New(regArity)
	for i := 0; i < 8; i++ {
		if mask&(1<<i) == 0 {
			continue
		}
		if regArity == 1 {
			if i < len(conjDomain) {
				reg.Add(value.Tuple{value.V(conjDomain[i])})
			}
		} else {
			reg.Add(value.Tuple{value.V(conjPairs[i][0]), value.V(conjPairs[i][1])})
		}
	}
	n := 2 + d.next()%3
	cs := make([]logic.Formula, 0, n+1)
	for i := 0; i < n; i++ {
		cs = append(cs, d.atom(regArity))
	}
	switch d.next() % 3 {
	case 1:
		cs = append(cs, logic.NeqT(d.term(), d.term()))
	case 2:
		cs = append(cs, &logic.Not{F: d.atom(regArity)})
	}
	f := logic.Conj(cs...)
	head := logic.FreeVars(f)
	if d.next()%2 == 1 && varAbsent(head, "w") {
		head = append(head, logic.Var("w"))
	}
	env := eval.NewEnv(conjInstance()).WithRelation("Reg", reg)
	return logic.MustQuery(head, nil, f), env
}

func varAbsent(vs []logic.Var, v logic.Var) bool {
	for _, w := range vs {
		if w == v {
			return false
		}
	}
	return true
}

// FuzzPlanConj pins the conjunction executor — index probes, hash
// joins, filters on bound prefixes and the uncovered-filter fallbacks —
// to the naive reference evaluator.
func FuzzPlanConj(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		q, env := decodeConj(data)
		p, err := plan.Compile(q)
		if err != nil {
			t.Fatalf("compile %s: %v", q, err)
		}
		got, gerr := p.Eval(env)
		want, werr := eval.EvalQueryNaive(q, env)
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("%s: plan err %v, naive err %v", q, gerr, werr)
		}
		if gerr == nil && !got.Equal(want) {
			t.Fatalf("%s:\nplan  %s\nnaive %s\n%s", q, got, want, p.Explain())
		}
	})
}
