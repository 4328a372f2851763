// Package cq implements the conjunctive-query algorithms behind the
// paper's decidability results:
//
//   - the PTIME satisfiability test of Theorem 1(1) via equality-class
//     completion;
//   - the constraint completion H̄ and polynomial path-composition
//     satisfiability used by the NP emptiness algorithm for
//     PT(CQ, S, virtual);
//   - query composition (substituting a query for a register atom),
//     the building block of every path-based analysis;
//   - containment and equivalence of CQ with ≠ via canonical databases
//     over all consistent identifications of variables (Klug's
//     criterion), and the reduced queries / c-equivalence of Claim 3;
//   - unions of conjunctive queries (UCQ) and their containment, used by
//     Proposition 6(1) and the nonrecursive equivalence checker.
package cq

import (
	"fmt"
	"sort"
	"strings"

	"ptx/internal/logic"
	"ptx/internal/value"
)

// Constraint is an (in)equality between two terms.
type Constraint struct {
	L, R logic.Term
	Eq   bool // true for =, false for ≠
}

func (c Constraint) String() string {
	op := "!="
	if c.Eq {
		op = "="
	}
	return c.L.String() + op + c.R.String()
}

// NF is a conjunctive query in normal form: head variables x̄ and a body
// ∃(vars not in head) ⋀ Atoms ∧ ⋀ Constraints. Every variable not in
// Head is implicitly existentially quantified.
type NF struct {
	Head        []logic.Var
	Atoms       []*logic.Atom
	Constraints []Constraint
}

// Normalize flattens a CQ formula (atoms, =, ≠, ∧, ∃ only) into normal
// form, renaming bound variables apart so that distinct quantifier
// scopes never clash. The given head variables stay fixed.
func Normalize(head []logic.Var, f logic.Formula) (*NF, error) {
	nf := &NF{Head: append([]logic.Var{}, head...)}
	fresh := newFreshener(head, f)
	if err := flatten(f, map[logic.Var]logic.Term{}, fresh, nf); err != nil {
		return nil, err
	}
	return nf, nil
}

// MustNormalize is Normalize that panics on non-CQ input.
func MustNormalize(head []logic.Var, f logic.Formula) *NF {
	nf, err := Normalize(head, f)
	if err != nil {
		panic(err)
	}
	return nf
}

type freshener struct {
	used map[logic.Var]bool
	n    int
}

func newFreshener(head []logic.Var, f logic.Formula) *freshener {
	fr := &freshener{used: map[logic.Var]bool{}}
	for _, v := range head {
		fr.used[v] = true
	}
	for _, v := range logic.FreeVars(f) {
		fr.used[v] = true
	}
	return fr
}

func (fr *freshener) fresh(base logic.Var) logic.Var {
	if !fr.used[base] {
		fr.used[base] = true
		return base
	}
	for {
		fr.n++
		cand := logic.Var(fmt.Sprintf("%s_%d", base, fr.n))
		if !fr.used[cand] {
			fr.used[cand] = true
			return cand
		}
	}
}

func flatten(f logic.Formula, ren map[logic.Var]logic.Term, fr *freshener, nf *NF) error {
	switch g := f.(type) {
	case *logic.Truth:
		if !g.B {
			// ⊥ as an unsatisfiable constraint on a throwaway variable.
			v := fr.fresh("false")
			nf.Constraints = append(nf.Constraints,
				Constraint{L: v, R: logic.Const("0"), Eq: true},
				Constraint{L: v, R: logic.Const("0"), Eq: false})
		}
		return nil
	case *logic.Atom:
		args := make([]logic.Term, len(g.Args))
		for i, t := range g.Args {
			args[i] = renTerm(t, ren)
		}
		nf.Atoms = append(nf.Atoms, &logic.Atom{Rel: g.Rel, Args: args})
		return nil
	case *logic.Eq:
		nf.Constraints = append(nf.Constraints, Constraint{L: renTerm(g.L, ren), R: renTerm(g.R, ren), Eq: true})
		return nil
	case *logic.Neq:
		nf.Constraints = append(nf.Constraints, Constraint{L: renTerm(g.L, ren), R: renTerm(g.R, ren), Eq: false})
		return nil
	case *logic.And:
		if err := flatten(g.L, ren, fr, nf); err != nil {
			return err
		}
		return flatten(g.R, ren, fr, nf)
	case *logic.Exists:
		inner := make(map[logic.Var]logic.Term, len(ren)+len(g.Bound))
		for k, v := range ren {
			inner[k] = v
		}
		for _, v := range g.Bound {
			inner[v] = fr.fresh(v)
		}
		return flatten(g.F, inner, fr, nf)
	default:
		return fmt.Errorf("cq: %T is not a conjunctive-query construct in %s", f, f)
	}
}

func renTerm(t logic.Term, ren map[logic.Var]logic.Term) logic.Term {
	if v, ok := t.(logic.Var); ok {
		if r, ok := ren[v]; ok {
			return r
		}
	}
	return t
}

// Vars returns all variables of the query (head first, then body
// existentials in first-occurrence order).
func (nf *NF) Vars() []logic.Var {
	seen := make(map[logic.Var]bool)
	var out []logic.Var
	add := func(t logic.Term) {
		if v, ok := t.(logic.Var); ok && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, v := range nf.Head {
		add(v)
	}
	for _, a := range nf.Atoms {
		for _, t := range a.Args {
			add(t)
		}
	}
	for _, c := range nf.Constraints {
		add(c.L)
		add(c.R)
	}
	return out
}

// Consts returns all constants of the query, sorted.
func (nf *NF) Consts() []value.V {
	seen := make(map[value.V]bool)
	add := func(t logic.Term) {
		if c, ok := t.(logic.Const); ok {
			seen[value.V(c)] = true
		}
	}
	for _, a := range nf.Atoms {
		for _, t := range a.Args {
			add(t)
		}
	}
	for _, c := range nf.Constraints {
		add(c.L)
		add(c.R)
	}
	out := make([]value.V, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	value.SortValues(out)
	return out
}

// Formula converts the normal form back to a logic.Formula with the
// body existentials quantified explicitly.
func (nf *NF) Formula() logic.Formula {
	var parts []logic.Formula
	for _, a := range nf.Atoms {
		parts = append(parts, a)
	}
	for _, c := range nf.Constraints {
		if c.Eq {
			parts = append(parts, logic.EqT(c.L, c.R))
		} else {
			parts = append(parts, logic.NeqT(c.L, c.R))
		}
	}
	body := logic.Conj(parts...)
	headSet := make(map[logic.Var]bool, len(nf.Head))
	for _, v := range nf.Head {
		headSet[v] = true
	}
	var bound []logic.Var
	for _, v := range nf.Vars() {
		if !headSet[v] {
			bound = append(bound, v)
		}
	}
	return logic.Ex(bound, body)
}

// Clone returns an independent deep copy.
func (nf *NF) Clone() *NF {
	c := &NF{Head: append([]logic.Var{}, nf.Head...)}
	for _, a := range nf.Atoms {
		c.Atoms = append(c.Atoms, &logic.Atom{Rel: a.Rel, Args: append([]logic.Term{}, a.Args...)})
	}
	c.Constraints = append(c.Constraints, nf.Constraints...)
	return c
}

// String renders the query for diagnostics.
func (nf *NF) String() string {
	parts := make([]string, 0, len(nf.Atoms)+len(nf.Constraints))
	for _, a := range nf.Atoms {
		parts = append(parts, a.String())
	}
	for _, c := range nf.Constraints {
		parts = append(parts, c.String())
	}
	heads := make([]string, len(nf.Head))
	for i, h := range nf.Head {
		heads[i] = string(h)
	}
	return fmt.Sprintf("(%s) <- %s", strings.Join(heads, ","), strings.Join(parts, " & "))
}

// --- Satisfiability (Theorem 1(1)) -----------------------------------

// classes is a union-find over terms keyed by a canonical string.
type classes struct {
	parent map[string]string
	term   map[string]logic.Term
}

func termKey(t logic.Term) string {
	switch u := t.(type) {
	case logic.Var:
		return "v:" + string(u)
	case logic.Const:
		return "c:" + string(u)
	}
	panic("cq: unknown term")
}

func newClasses() *classes {
	return &classes{parent: map[string]string{}, term: map[string]logic.Term{}}
}

func (c *classes) add(t logic.Term) string {
	k := termKey(t)
	if _, ok := c.parent[k]; !ok {
		c.parent[k] = k
		c.term[k] = t
	}
	return k
}

func (c *classes) find(k string) string {
	for c.parent[k] != k {
		c.parent[k] = c.parent[c.parent[k]]
		k = c.parent[k]
	}
	return k
}

func (c *classes) union(a, b string) {
	ra, rb := c.find(a), c.find(b)
	if ra != rb {
		c.parent[ra] = rb
	}
}

// buildClasses runs union-find over the equalities of the query and
// registers every term.
func (nf *NF) buildClasses() *classes {
	uf := newClasses()
	for _, v := range nf.Vars() {
		uf.add(v)
	}
	for _, a := range nf.Atoms {
		for _, t := range a.Args {
			uf.add(t)
		}
	}
	for _, c := range nf.Constraints {
		lk, rk := uf.add(c.L), uf.add(c.R)
		if c.Eq {
			uf.union(lk, rk)
		}
	}
	return uf
}

// classValue returns the constant value of the class containing root,
// if any; an error signals two distinct constants in one class.
func classValues(nf *NF, uf *classes) (map[string]value.V, bool) {
	vals := make(map[string]value.V)
	for k, t := range uf.term {
		c, ok := t.(logic.Const)
		if !ok {
			continue
		}
		root := uf.find(k)
		if prev, seen := vals[root]; seen && prev != value.V(c) {
			return nil, false // two distinct constants equated
		}
		vals[root] = value.V(c)
	}
	return vals, true
}

// Satisfiable implements the quadratic satisfiability check of
// Theorem 1(1): compute the equality classes, then reject iff a class
// contains two distinct constants, or an inequality links a class to
// itself, or two classes carrying the same constant are forced apart
// while being the same class — i.e. any ≠ whose two sides fall in one
// class.
func (nf *NF) Satisfiable() bool {
	uf := nf.buildClasses()
	vals, ok := classValues(nf, uf)
	if !ok {
		return false
	}
	for _, c := range nf.Constraints {
		if c.Eq {
			continue
		}
		lr, rr := uf.find(termKey(c.L)), uf.find(termKey(c.R))
		if lr == rr {
			return false
		}
		lv, lok := vals[lr]
		rv, rok := vals[rr]
		if lok && rok && lv == rv {
			return false
		}
	}
	return true
}

// CompletionOnHead computes H̄: every (in)equality among head terms and
// constants entailed by the query's constraints — the completion used by
// the NP path-satisfiability algorithm of Theorem 1(1)'s upper-bound
// proof. The result is expressed over the head variables (and constants).
func (nf *NF) CompletionOnHead() []Constraint {
	uf := nf.buildClasses()
	vals, ok := classValues(nf, uf)
	if !ok {
		return []Constraint{{L: nf.headTerm(0), R: nf.headTerm(0), Eq: false}}
	}
	var out []Constraint
	// Equalities among head variables and with constants.
	for i, hi := range nf.Head {
		ri := uf.find(termKey(hi))
		if v, okv := vals[ri]; okv {
			out = append(out, Constraint{L: hi, R: logic.Const(v), Eq: true})
		}
		for j := i + 1; j < len(nf.Head); j++ {
			hj := nf.Head[j]
			rj := uf.find(termKey(hj))
			if ri == rj {
				out = append(out, Constraint{L: hi, R: hj, Eq: true})
			}
		}
	}
	// Inequalities: explicit ≠ lifted to class level, plus distinct
	// constant values.
	neq := make(map[[2]string]bool)
	for _, c := range nf.Constraints {
		if c.Eq {
			continue
		}
		lr, rr := uf.find(termKey(c.L)), uf.find(termKey(c.R))
		neq[[2]string{lr, rr}] = true
		neq[[2]string{rr, lr}] = true
	}
	for i, hi := range nf.Head {
		ri := uf.find(termKey(hi))
		for j := i + 1; j < len(nf.Head); j++ {
			hj := nf.Head[j]
			rj := uf.find(termKey(hj))
			if ri == rj {
				continue
			}
			vi, iok := vals[ri]
			vj, jok := vals[rj]
			if neq[[2]string{ri, rj}] || (iok && jok && vi != vj) {
				out = append(out, Constraint{L: hi, R: hj, Eq: false})
			}
		}
		// Head ≠ constant facts.
		for root, v := range vals {
			if root == ri {
				continue
			}
			if neq[[2]string{ri, root}] {
				out = append(out, Constraint{L: hi, R: logic.Const(v), Eq: false})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

func (nf *NF) headTerm(i int) logic.Term {
	if i < len(nf.Head) {
		return nf.Head[i]
	}
	return logic.Const("0")
}

// ConstraintsFormula renders a constraint list as a conjunction.
func ConstraintsFormula(cs []Constraint) logic.Formula {
	parts := make([]logic.Formula, len(cs))
	for i, c := range cs {
		if c.Eq {
			parts[i] = logic.EqT(c.L, c.R)
		} else {
			parts[i] = logic.NeqT(c.L, c.R)
		}
	}
	return logic.Conj(parts...)
}

// --- Composition ------------------------------------------------------

// Compose substitutes inner for every atom over regName in outer:
// each occurrence Reg(t̄) becomes inner's body with inner's head
// identified with t̄ (bound variables freshened per occurrence). The
// result is the composed query Q_outer ∘ Q_inner in normal form.
func Compose(outer *NF, regName string, inner *NF) (*NF, error) {
	out := &NF{Head: append([]logic.Var{}, outer.Head...)}
	out.Constraints = append(out.Constraints, outer.Constraints...)
	fr := newComposeFreshener(outer, inner)
	occurrence := 0
	for _, a := range outer.Atoms {
		if a.Rel != regName {
			out.Atoms = append(out.Atoms, a)
			continue
		}
		if len(a.Args) != len(inner.Head) {
			return nil, fmt.Errorf("cq: %s atom has %d args, inner head has %d",
				regName, len(a.Args), len(inner.Head))
		}
		occurrence++
		ren := make(map[logic.Var]logic.Term)
		// Head variables of inner map to the atom's argument terms.
		for i, h := range inner.Head {
			ren[h] = a.Args[i]
		}
		// Remaining inner variables get fresh names per occurrence.
		for _, v := range inner.Vars() {
			if _, ok := ren[v]; !ok {
				ren[v] = fr.fresh(v)
			}
		}
		for _, ia := range inner.Atoms {
			args := make([]logic.Term, len(ia.Args))
			for i, t := range ia.Args {
				args[i] = renTerm(t, ren)
			}
			out.Atoms = append(out.Atoms, &logic.Atom{Rel: ia.Rel, Args: args})
		}
		for _, ic := range inner.Constraints {
			out.Constraints = append(out.Constraints,
				Constraint{L: renTerm(ic.L, ren), R: renTerm(ic.R, ren), Eq: ic.Eq})
		}
	}
	return out, nil
}

func newComposeFreshener(outer, inner *NF) *freshener {
	fr := &freshener{used: map[logic.Var]bool{}}
	for _, v := range outer.Vars() {
		fr.used[v] = true
	}
	for _, v := range inner.Vars() {
		fr.used[v] = true
	}
	return fr
}

// UsesRel reports whether the query has an atom over rel.
func (nf *NF) UsesRel(rel string) bool {
	for _, a := range nf.Atoms {
		if a.Rel == rel {
			return true
		}
	}
	return false
}

// HeadDeterminedBy reports whether every head variable of the query is
// forced to a single value once the atoms over rel are fixed to one
// tuple: each head variable's equality class contains a constant or a
// term occurring as an argument of a rel atom. With tuple registers
// this bounds the query's result to at most one tuple — the static
// multiplicity analysis used by the typechecker.
func (nf *NF) HeadDeterminedBy(rel string) bool {
	uf := nf.buildClasses()
	determined := map[string]bool{}
	for _, a := range nf.Atoms {
		if a.Rel != rel {
			continue
		}
		for _, t := range a.Args {
			determined[uf.find(termKey(t))] = true
		}
	}
	for k, t := range uf.term {
		if _, ok := t.(logic.Const); ok {
			determined[uf.find(k)] = true
		}
	}
	for _, h := range nf.Head {
		if !determined[uf.find(termKey(h))] {
			return false
		}
	}
	return true
}
