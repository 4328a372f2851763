// Package datalog implements linear datalog (LinDatalog) with '≠' — the
// relational query language that PT(CQ, tuple, normal) captures
// (Theorem 3(2)) — together with semi-naive evaluation, structural
// analysis (linearity, recursion, determinism), and the two-way
// translation with publishing transducers from the proof of
// Theorem 3(2).
//
// A program is a set of rules
//
//	p(x̄) ← p1(x̄1), …, pn(x̄n), constraints
//
// where each pi is an EDB or IDB predicate and constraints are = / ≠
// between variables and constants. The program is linear when every
// rule body holds at most one IDB atom.
package datalog

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"ptx/internal/cq"
	"ptx/internal/eval"
	"ptx/internal/logic"
	"ptx/internal/plan"
	"ptx/internal/relation"
	"ptx/internal/value"
)

// Rule is a single datalog rule. Head arguments may be variables or
// constants; body atoms range over EDB and IDB predicates. Guards are
// arbitrary FO formulas over the EDB predicates (LinDatalog(FO),
// see fo.go); plain LinDatalog rules have none.
type Rule struct {
	Head        *logic.Atom
	Body        []*logic.Atom
	Constraints []cq.Constraint
	Guards      []logic.Formula
}

// String renders the rule in the usual head ← body notation.
func (r *Rule) String() string {
	parts := make([]string, 0, len(r.Body)+len(r.Constraints)+len(r.Guards))
	for _, a := range r.Body {
		parts = append(parts, a.String())
	}
	for _, c := range r.Constraints {
		parts = append(parts, c.String())
	}
	for _, g := range r.Guards {
		parts = append(parts, g.String())
	}
	return r.Head.String() + " <- " + strings.Join(parts, ", ")
}

// Program is a datalog program over an EDB schema with a designated
// output (answer) predicate.
type Program struct {
	EDB    *relation.Schema
	Output string
	Rules  []*Rule
}

// IDB returns the set of intensional predicates (those appearing in
// rule heads), sorted.
func (p *Program) IDB() []string {
	set := make(map[string]bool)
	for _, r := range p.Rules {
		set[r.Head.Rel] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (p *Program) isIDB(name string) bool {
	for _, r := range p.Rules {
		if r.Head.Rel == name {
			return true
		}
	}
	return false
}

// Validate checks arities are consistent, body predicates are EDB or
// IDB, and the output predicate has at least one rule.
func (p *Program) Validate() error {
	arity := make(map[string]int)
	for _, n := range p.EDB.Names() {
		a, _ := p.EDB.Arity(n)
		arity[n] = a
	}
	record := func(a *logic.Atom) error {
		if prev, ok := arity[a.Rel]; ok {
			if prev != len(a.Args) {
				return fmt.Errorf("datalog: %s used with arities %d and %d", a.Rel, prev, len(a.Args))
			}
			return nil
		}
		arity[a.Rel] = len(a.Args)
		return nil
	}
	for _, r := range p.Rules {
		if err := record(r.Head); err != nil {
			return err
		}
		if _, isEDB := p.EDB.Arity(r.Head.Rel); isEDB {
			return fmt.Errorf("datalog: rule head %s is an EDB predicate", r.Head.Rel)
		}
		for _, a := range r.Body {
			if err := record(a); err != nil {
				return err
			}
			if !p.isIDB(a.Rel) {
				if _, ok := p.EDB.Arity(a.Rel); !ok {
					return fmt.Errorf("datalog: body predicate %s is neither EDB nor IDB in %s", a.Rel, r)
				}
			}
		}
		// Head variables must be bound by the body (range restriction);
		// constants are always fine. Guard free variables bind under the
		// active-domain semantics.
		bound := make(map[logic.Var]bool)
		for _, a := range r.Body {
			for _, t := range a.Args {
				if v, ok := t.(logic.Var); ok {
					bound[v] = true
				}
			}
		}
		for _, g := range r.Guards {
			for _, v := range logic.FreeVars(g) {
				bound[v] = true
			}
		}
		// Equality with a constant or bound variable also binds.
		changed := true
		for changed {
			changed = false
			for _, c := range r.Constraints {
				if !c.Eq {
					continue
				}
				lv, lok := c.L.(logic.Var)
				rv, rok := c.R.(logic.Var)
				switch {
				case lok && !bound[lv] && (!rok || bound[rv]):
					bound[lv] = true
					changed = true
				case rok && !bound[rv] && (!lok || bound[lv]):
					bound[rv] = true
					changed = true
				}
			}
		}
		for _, t := range r.Head.Args {
			if v, ok := t.(logic.Var); ok && !bound[v] {
				return fmt.Errorf("datalog: head variable %s unbound in %s", v, r)
			}
		}
	}
	if !p.isIDB(p.Output) {
		return fmt.Errorf("datalog: output predicate %s has no rules", p.Output)
	}
	return p.validateGuards()
}

// IsLinear reports whether every rule body holds at most one IDB atom.
func (p *Program) IsLinear() bool {
	for _, r := range p.Rules {
		n := 0
		for _, a := range r.Body {
			if p.isIDB(a.Rel) {
				n++
			}
		}
		if n > 1 {
			return false
		}
	}
	return true
}

// IsNonrecursive reports whether the IDB dependency graph is acyclic.
func (p *Program) IsNonrecursive() bool {
	succ := make(map[string][]string)
	for _, r := range p.Rules {
		for _, a := range r.Body {
			if p.isIDB(a.Rel) {
				succ[r.Head.Rel] = append(succ[r.Head.Rel], a.Rel)
			}
		}
	}
	const (
		white = iota
		gray
		black
	)
	color := make(map[string]int)
	var visit func(n string) bool
	visit = func(n string) bool {
		color[n] = gray
		for _, m := range succ[n] {
			switch color[m] {
			case gray:
				return true
			case white:
				if visit(m) {
					return true
				}
			}
		}
		color[n] = black
		return false
	}
	for _, n := range p.IDB() {
		if color[n] == white && visit(n) {
			return false
		}
	}
	return true
}

// IsDeterministic reports whether every IDB predicate has exactly one
// rule (the deterministic LinDatalog of Claim 5).
func (p *Program) IsDeterministic() bool {
	count := make(map[string]int)
	for _, r := range p.Rules {
		count[r.Head.Rel]++
	}
	for _, n := range count {
		if n != 1 {
			return false
		}
	}
	return true
}

// Eval computes the program's fixpoint on inst by semi-naive iteration
// and returns the output relation; EvalNaive is the naive baseline.
func (p *Program) Eval(inst *relation.Instance) (*relation.Relation, error) {
	return p.eval(inst, false)
}

// EvalNaive recomputes every rule from the full IDB each round; it is
// the ablation baseline for the semi-naive evaluator.
func (p *Program) EvalNaive(inst *relation.Instance) (*relation.Relation, error) {
	return p.eval(inst, true)
}

// firing is a rule body compiled once for one Δ occurrence: a plan over
// the head's distinct variables, and each head argument's column in its
// result (−1 for a constant).
type firing struct {
	rule *Rule
	plan *plan.Plan
	cols []int
	// direct is set when the plan's result already is the head relation.
	direct bool
}

// compileFiring compiles r's body with body atom deltaOcc (none when
// negative) read from its Δ relation.
func compileFiring(r *Rule, deltaOcc int) (*firing, error) {
	parts := make([]logic.Formula, 0, len(r.Body)+1+len(r.Guards))
	f := &firing{rule: r, cols: make([]int, len(r.Head.Args)), direct: true}
	for i, a := range r.Body {
		if i == deltaOcc {
			a = &logic.Atom{Rel: deltaPrefix + a.Rel, Args: a.Args}
		}
		parts = append(parts, a)
	}
	parts = append(parts, cq.ConstraintsFormula(r.Constraints))
	parts = append(parts, r.Guards...)
	body := logic.Conj(parts...)

	var head []logic.Var
	for i, arg := range r.Head.Args {
		f.cols[i] = -1
		if v, ok := arg.(logic.Var); ok {
			f.cols[i] = slices.Index(head, v)
			if f.cols[i] < 0 {
				f.cols[i] = len(head)
				head = append(head, v)
			}
		}
		f.direct = f.direct && f.cols[i] == i
	}
	var hidden []logic.Var
	for _, v := range logic.FreeVars(body) {
		if !slices.Contains(head, v) {
			hidden = append(hidden, v)
		}
	}
	pl, err := plan.Compile(&logic.Query{ContentVars: head, F: logic.Ex(hidden, body)})
	if err != nil {
		return nil, fmt.Errorf("datalog: rule %s: %v", r, err)
	}
	f.plan = pl
	return f, nil
}

// fire evaluates the firing against env and returns the head tuples.
func (f *firing) fire(env plan.Env) (*relation.Relation, error) {
	res, err := f.plan.Eval(env)
	if err != nil {
		return nil, fmt.Errorf("datalog: rule %s: %v", f.rule, err)
	}
	if f.direct {
		return res, nil
	}
	out := relation.New(len(f.cols))
	res.EachUnordered(func(t value.Tuple) bool {
		h := make(value.Tuple, len(f.cols))
		for i, c := range f.cols {
			if c < 0 {
				h[i] = value.V(f.rule.Head.Args[i].(logic.Const))
			} else {
				h[i] = t[c]
			}
		}
		out.Add(h)
		return true
	})
	return out, nil
}

// deltaPrefix names the Δ relation of an IDB predicate in a firing.
const deltaPrefix = "Δ"

// deltaEnv resolves Δ-prefixed names to the current round's deltas and
// everything else through the IDB-extended environment. Its domain is
// the environment's: every delta is a subset of its total.
type deltaEnv struct {
	*eval.Env
	delta map[string]*relation.Relation
}

func (e deltaEnv) Lookup(name string) (*relation.Relation, bool) {
	if n, ok := strings.CutPrefix(name, deltaPrefix); ok {
		if r, ok := e.delta[n]; ok {
			return r, true
		}
	}
	return e.Env.Lookup(name)
}

func (p *Program) eval(inst *relation.Instance, naive bool) (*relation.Relation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	arities := make(map[string]int)
	for _, r := range p.Rules {
		arities[r.Head.Rel] = len(r.Head.Args)
	}
	// The totals are mutated in place, so one environment serves every
	// round; the deltas are swapped in through deltaEnv.
	total := make(map[string]*relation.Relation)
	delta := make(map[string]*relation.Relation)
	base := eval.NewEnv(inst)
	for _, n := range p.IDB() {
		total[n] = relation.New(arities[n])
		delta[n] = relation.New(arities[n])
		base = base.WithRelation(n, total[n])
	}
	env := deltaEnv{base, delta}

	// fire evaluates rule k with body occurrence occ (none when negative)
	// read from its delta, compiling each (rule, occurrence) body on its
	// first firing.
	compiled := make(map[[2]int]*firing)
	fire := func(k, occ int) (*relation.Relation, error) {
		f := compiled[[2]int{k, occ}]
		if f == nil {
			var err error
			if f, err = compileFiring(p.Rules[k], occ); err != nil {
				return nil, err
			}
			compiled[[2]int{k, occ}] = f
		}
		return f.fire(env)
	}
	hasIDB := func(r *Rule) bool {
		return slices.ContainsFunc(r.Body, func(a *logic.Atom) bool { _, ok := arities[a.Rel]; return ok })
	}

	// Initial round: with the IDB empty only rules without IDB atoms can
	// produce tuples; the naive baseline fires everything.
	for k, r := range p.Rules {
		if !naive && hasIDB(r) {
			continue
		}
		res, err := fire(k, -1)
		if err != nil {
			return nil, err
		}
		res.EachUnordered(func(t value.Tuple) bool {
			if total[r.Head.Rel].Insert(t) {
				delta[r.Head.Rel].Add(t)
			}
			return true
		})
	}

	for {
		next := make(map[string]*relation.Relation)
		for n, a := range arities {
			next[n] = relation.New(a)
		}
		grew := false
		for k, r := range p.Rules {
			var results []*relation.Relation
			if naive {
				res, err := fire(k, -1)
				if err != nil {
					return nil, err
				}
				results = append(results, res)
			} else {
				// Semi-naive: fire once per IDB body occurrence with a
				// nonempty delta (other occurrences see the full total).
				for i, a := range r.Body {
					if d, ok := delta[a.Rel]; !ok || d.Empty() {
						continue
					}
					res, err := fire(k, i)
					if err != nil {
						return nil, err
					}
					results = append(results, res)
				}
			}
			for _, res := range results {
				res.EachUnordered(func(t value.Tuple) bool {
					if !total[r.Head.Rel].Contains(t) && next[r.Head.Rel].Insert(t) {
						grew = true
					}
					return true
				})
			}
		}
		for n, rel := range next {
			total[n].UnionWith(rel)
			delta[n] = rel
		}
		if !grew {
			break
		}
	}
	return total[p.Output], nil
}
