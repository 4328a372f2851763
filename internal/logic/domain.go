package logic

import "slices"

// ReadsDomain reports whether q's answer may depend on the active domain
// of the whole instance instead of only on the relations its formula
// names. Evaluation ranges a variable over the active domain when no
// positive atom binds it: under ¬ or ≠, in x=y with both sides free, in
// ∃ and in the head. ∀ and fixpoints are always taken to read it. Such a
// query can change when ANY relation changes, since a write elsewhere
// can add a value to the domain or remove one.
//
// The test is syntactic and conservative, in the style of safe-range
// normal forms: false guarantees the answer is a function of the named
// relations (registers included) and the query's constants, while true
// may also be returned for a formula that is in fact domain-independent,
// such as a ∀ that a rewrite would turn into a guarded ¬∃.
func (q *Query) ReadsDomain() bool {
	bound, ok := rangeBound(q.F, nil)
	if !ok {
		return true
	}
	for _, v := range q.Head() {
		if !slices.Contains(bound, v) {
			return true
		}
	}
	return false
}

// rangeBound returns in extended by the free variables of f that f
// binds to values of the relations it names, given that the context
// already binds the variables in in, or false if evaluating f in such a
// context may range over the active domain. It never modifies in.
func rangeBound(f Formula, in []Var) ([]Var, bool) {
	switch g := f.(type) {
	case *Truth:
		return in, true
	case *Atom:
		out := in
		for _, t := range g.Args {
			out = withVar(out, t)
		}
		return out, true
	case *Eq:
		switch l, r := isBound(g.L, in), isBound(g.R, in); {
		case l && r:
			return in, true
		case l:
			return withVar(in, g.R), true
		case r:
			return withVar(in, g.L), true
		}
		return nil, false
	case *Neq:
		return in, isBound(g.L, in) && isBound(g.R, in)
	case *Not:
		for _, v := range FreeVars(g.F) {
			if !slices.Contains(in, v) {
				return nil, false
			}
		}
		_, ok := rangeBound(g.F, in)
		return in, ok
	case *And:
		// A conjunct may need another's bindings (x=y after R(x), ¬S(x)
		// after R(x)): take them in any order that makes progress.
		out, pending := in, conjuncts(g, nil)
		for len(pending) > 0 {
			rest := pending[:0:0]
			for _, c := range pending {
				if next, ok := rangeBound(c, out); ok {
					out = next
				} else {
					rest = append(rest, c)
				}
			}
			if len(rest) == len(pending) {
				return nil, false
			}
			pending = rest
		}
		return out, true
	case *Or:
		// Each branch must bind every free variable of the disjunction,
		// or the other branch's rows would be padded with the domain.
		l, okL := rangeBound(g.L, in)
		r, okR := rangeBound(g.R, in)
		if !okL || !okR {
			return nil, false
		}
		out := in
		for _, v := range FreeVars(g) {
			if !slices.Contains(l, v) || !slices.Contains(r, v) {
				return nil, false
			}
			out = withVar(out, v)
		}
		return out, true
	case *Exists:
		inner := slices.DeleteFunc(slices.Clone(in), func(v Var) bool { return slices.Contains(g.Bound, v) })
		b, ok := rangeBound(g.F, inner)
		if !ok {
			return nil, false
		}
		out := in
		for _, v := range g.Bound {
			if !slices.Contains(b, v) {
				return nil, false // a vacuous or unguarded ∃ reads the domain
			}
		}
		for _, v := range b {
			if !slices.Contains(g.Bound, v) {
				out = withVar(out, v)
			}
		}
		return out, true
	}
	return nil, false // ∀, fixpoints
}

// conjuncts flattens nested conjunctions into out.
func conjuncts(f Formula, out []Formula) []Formula {
	if a, ok := f.(*And); ok {
		return conjuncts(a.R, conjuncts(a.L, out))
	}
	return append(out, f)
}

// isBound reports whether t is a constant or a variable in vs.
func isBound(t Term, vs []Var) bool {
	v, ok := t.(Var)
	return !ok || slices.Contains(vs, v)
}

// withVar returns vs with t added if t is a variable vs lacks, copying
// rather than appending in place, so a caller's slice is never changed.
func withVar(vs []Var, t Term) []Var {
	v, ok := t.(Var)
	if !ok || slices.Contains(vs, v) {
		return vs
	}
	return append(slices.Clip(vs), v)
}
