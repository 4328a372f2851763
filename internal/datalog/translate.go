package datalog

import (
	"fmt"

	"ptx/internal/cq"
	"ptx/internal/logic"
	"ptx/internal/pt"
)

// FromTransducer translates a PT(CQ, tuple, O) transducer viewed as a
// relational query with output label outLabel into an equivalent
// LinDatalog program (the first half of Theorem 3(2)).
//
// One IDB predicate P_q_a of arity Θ(a) is created per dependency-graph
// node; a transducer rule item (q,a) → (q',a',φ) becomes the linear rule
//
//	P_q'_a'(x̄φ) ← P_q_a(z̄), body(φ)[Reg(t̄) ↦ t̄ = z̄], constraints(φ)
//
// (itemToRule solves the equalities t̄ = z̄ where t̄ holds distinct
// variables), which is sound and complete for the output relation Rτ
// because with tuple stores every register is a single tuple and the
// stop condition only prunes subtrees whose registers are already
// present.
func FromTransducer(t *pt.Transducer, outLabel string) (*Program, error) {
	cl := t.Classify()
	if cl.Logic != logic.CQ {
		return nil, fmt.Errorf("datalog: transducer %s uses %s, need CQ", t.Name, cl.Logic)
	}
	if cl.Store != pt.TupleStore {
		return nil, fmt.Errorf("datalog: transducer %s has relation stores", t.Name)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if _, ok := t.Arities[outLabel]; !ok {
		return nil, fmt.Errorf("datalog: unknown output label %q", outLabel)
	}

	prog := &Program{EDB: t.Schema, Output: "ans"}
	pred := func(state, tag string) string { return "P_" + state + "_" + tag }

	// Base fact for the root configuration.
	prog.Rules = append(prog.Rules, &Rule{
		Head: &logic.Atom{Rel: pred(t.Start, t.RootTag)},
	})

	outArity := t.Arities[outLabel]
	ansAdded := make(map[string]bool)
	addAnsRule := func(state string) {
		key := pred(state, outLabel)
		if ansAdded[key] {
			return
		}
		ansAdded[key] = true
		args := make([]logic.Term, outArity)
		vars := make([]logic.Term, outArity)
		for i := 0; i < outArity; i++ {
			v := logic.Var(fmt.Sprintf("o%d", i))
			args[i] = v
			vars[i] = v
		}
		prog.Rules = append(prog.Rules, &Rule{
			Head: &logic.Atom{Rel: "ans", Args: args},
			Body: []*logic.Atom{{Rel: key, Args: vars}},
		})
	}

	for _, r := range t.Rules() {
		parentPred := pred(r.State, r.Tag)
		parentArity := t.Arities[r.Tag]
		for _, it := range r.Items {
			nf, err := cq.Normalize(it.Query.Head(), it.Query.F)
			if err != nil {
				return nil, fmt.Errorf("datalog: rule (%s,%s) item %s: %v", r.State, r.Tag, it.Tag, err)
			}
			rule, err := itemToRule(nf, parentPred, parentArity, pred(it.State, it.Tag))
			if err != nil {
				return nil, err
			}
			prog.Rules = append(prog.Rules, rule)
			if it.Tag == outLabel {
				addAnsRule(it.State)
			}
		}
	}
	if len(ansAdded) == 0 {
		// outLabel is never produced: give ans a single unsatisfiable
		// rule so the program stays valid and always answers empty.
		args := make([]logic.Term, outArity)
		var cons []cq.Constraint
		for i := 0; i < outArity; i++ {
			v := logic.Var(fmt.Sprintf("o%d", i))
			args[i] = v
			cons = append(cons, cq.Constraint{L: v, R: logic.Const("0"), Eq: true})
		}
		dead := logic.Var("never")
		cons = append(cons,
			cq.Constraint{L: dead, R: logic.Const("0"), Eq: true},
			cq.Constraint{L: dead, R: logic.Const("0"), Eq: false})
		prog.Rules = append(prog.Rules, &Rule{
			Head:        &logic.Atom{Rel: "ans", Args: args},
			Body:        []*logic.Atom{{Rel: pred(t.Start, t.RootTag)}},
			Constraints: cons,
		})
	}
	return prog, nil
}

// itemToRule converts one normalized item query into a linear rule
// whose parent atom P(z̄) stands for the register. The first Reg(t̄)
// atom's variables become z̄ itself, so the parent binds them and
// probes the EDB atoms directly instead of joining through
// equalities; only a constant, a repeated variable or a later Reg atom
// leaves a t = z constraint. Without a Reg atom z̄ is fresh.
func itemToRule(nf *cq.NF, parentPred string, parentArity int, childPred string) (*Rule, error) {
	zs := make([]logic.Term, parentArity)
	rule := &Rule{Head: &logic.Atom{Rel: childPred, Args: logicTerms(nf.Head)}}
	rule.Body = append(rule.Body, &logic.Atom{Rel: parentPred, Args: zs})
	used := make(map[logic.Var]bool)
	for _, a := range nf.Atoms {
		if a.Rel != pt.RegRel {
			rule.Body = append(rule.Body, a)
			continue
		}
		if len(a.Args) != parentArity {
			return nil, fmt.Errorf("datalog: Reg atom arity %d vs parent %d", len(a.Args), parentArity)
		}
		for i, t := range a.Args {
			if v, ok := t.(logic.Var); ok && zs[i] == nil && !used[v] {
				zs[i], used[v] = v, true
				continue
			}
			if zs[i] == nil {
				zs[i] = logic.Var(fmt.Sprintf("z_reg%d", i))
			}
			rule.Constraints = append(rule.Constraints, cq.Constraint{L: t, R: zs[i], Eq: true})
		}
	}
	for i := range zs {
		if zs[i] == nil {
			zs[i] = logic.Var(fmt.Sprintf("z_reg%d", i))
		}
	}
	rule.Constraints = append(rule.Constraints, nf.Constraints...)
	return rule, nil
}

func logicTerms(vs []logic.Var) []logic.Term {
	out := make([]logic.Term, len(vs))
	for i, v := range vs {
		out[i] = v
	}
	return out
}

// ToTransducer translates a LinDatalog program into a publishing
// transducer in PT(CQ, tuple, normal) whose output relation on label
// "ans" equals the program's answer on every instance (the second half
// of Theorem 3(2)).
//
// Each program rule k gets a tag t<k> carrying the derived head tuple;
// a node tagged t<k> (head predicate P) spawns, for every rule m whose
// IDB body atom is over P, a t<m> child whose query replaces that atom
// by Reg; rules deriving the output predicate additionally copy their
// register to an "ans" child.
func ToTransducer(p *Program) (*pt.Transducer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !p.IsLinear() {
		return nil, fmt.Errorf("datalog: program is not linear")
	}
	outArity := -1
	for _, r := range p.Rules {
		if r.Head.Rel == p.Output {
			outArity = len(r.Head.Args)
		}
	}
	if outArity < 0 {
		return nil, fmt.Errorf("datalog: no rule for output %s", p.Output)
	}

	t := pt.New("lin2pt", p.EDB, "q0", "r")
	t.DeclareTag("ans", outArity)

	ruleTag := func(k int) string { return fmt.Sprintf("t%d", k) }
	for k, r := range p.Rules {
		t.DeclareTag(ruleTag(k), len(r.Head.Args))
	}

	// idbOcc returns the (unique) IDB body atom of rule r, if any.
	idbOcc := func(r *Rule) *logic.Atom {
		for _, a := range r.Body {
			if p.isIDB(a.Rel) {
				return a
			}
		}
		return nil
	}

	// ruleQuery builds the item query for firing rule m when the parent
	// register holds a tuple of m's IDB body predicate (parent == nil for
	// EDB-only rules fired from the root).
	ruleQuery := func(m int) (*logic.Query, error) {
		r := p.Rules[m]
		// Head variables h0..h(n-1) with equalities to the head terms.
		headVars := make([]logic.Var, len(r.Head.Args))
		var parts []logic.Formula
		for i, arg := range r.Head.Args {
			headVars[i] = logic.Var(fmt.Sprintf("h%d", i))
			parts = append(parts, logic.EqT(headVars[i], arg))
		}
		for _, a := range r.Body {
			if p.isIDB(a.Rel) {
				parts = append(parts, &logic.Atom{Rel: pt.RegRel, Args: a.Args})
				continue
			}
			parts = append(parts, a)
		}
		parts = append(parts, cq.ConstraintsFormula(r.Constraints))
		body := logic.Conj(parts...)
		// Existentially close everything except the head variables.
		headSet := make(map[logic.Var]bool, len(headVars))
		for _, v := range headVars {
			headSet[v] = true
		}
		var bound []logic.Var
		for _, v := range logic.FreeVars(body) {
			if !headSet[v] {
				bound = append(bound, v)
			}
		}
		return logic.NewQuery(headVars, nil, logic.Ex(bound, body))
	}

	// Successor items for a node whose register holds a tuple of pred.
	succItems := func(pred string) ([]pt.RHS, error) {
		var items []pt.RHS
		for m, r := range p.Rules {
			occ := idbOcc(r)
			if occ == nil || occ.Rel != pred {
				continue
			}
			q, err := ruleQuery(m)
			if err != nil {
				return nil, err
			}
			items = append(items, pt.Item("q1", ruleTag(m), q))
		}
		return items, nil
	}

	// Root: fire every EDB-only rule.
	var rootItems []pt.RHS
	for m, r := range p.Rules {
		if idbOcc(r) != nil {
			continue
		}
		q, err := ruleQuery(m)
		if err != nil {
			return nil, err
		}
		rootItems = append(rootItems, pt.Item("q1", ruleTag(m), q))
	}
	t.AddRule("q0", "r", rootItems...)

	// Per-rule-tag transitions.
	for k, r := range p.Rules {
		items, err := succItems(r.Head.Rel)
		if err != nil {
			return nil, err
		}
		if r.Head.Rel == p.Output {
			copyVars := make([]logic.Var, len(r.Head.Args))
			copyTerms := make([]logic.Term, len(r.Head.Args))
			for i := range copyVars {
				copyVars[i] = logic.Var(fmt.Sprintf("a%d", i))
				copyTerms[i] = copyVars[i]
			}
			copyQ := logic.MustQuery(copyVars, nil, &logic.Atom{Rel: pt.RegRel, Args: copyTerms})
			items = append(items, pt.Item("q2", "ans", copyQ))
		}
		t.AddRule("q1", ruleTag(k), items...)
	}
	t.AddRule("q2", "ans")
	return t, nil
}
