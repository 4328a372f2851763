// Package plan compiles transducer queries (logic.Query) to executable
// plans, the one evaluator that runs queries. A publishing transducer
// evaluates the same handful of rule queries at thousands to millions
// of nodes, so this package resolves variable positions, join layouts
// and negation rewrites once per query instead of per node visit:
//
//   - the formula is rewritten to negation normal form and lowered to
//     an operator tree (scan, conj, union, project, complement,
//     forall, fixpoint) with every variable layout — scan output
//     order, duplicate-variable checks, union alignments, head
//     projections — resolved at compile time;
//   - a query that is a conjunction of 2–8 atoms sharing variables,
//     possibly under a non-vacuous ∃, with (in)equalities over the
//     variables the atoms bind and every head variable in an atom (the
//     PT(CQ) rule queries: a register joined with base relations)
//     compiles to the chain operator: one depth-first nested loop over
//     variable slots, starting at the atom with the smallest extent and
//     probing each later atom with a slot bound before it, with a step
//     order precomputed for every start atom (see nChain);
//   - other conjunctions join their positive conjuncts greedily by
//     cardinality (smallest first, preferring joinable pairs over
//     cross products): an atom sharing a variable with a smaller bound
//     prefix is joined by probing the relation's column index once per
//     prefix row, anything else is scanned and hash-joined; (in)equality
//     and negation conjuncts apply as filters on the bound prefix the
//     moment their variables are covered instead of materializing
//     |adom|² binding sets. Probes into a relation of at most 8 tuples
//     (a per-node register) scan it instead, so it never gets a column
//     index built;
//   - fixpoint bodies are compiled once and re-executed per iteration
//     against the growing stage relation;
//   - operators whose rows are distinct by construction skip hashing:
//     only nested projections and unions deduplicate; the result itself
//     is deduplicated once, by the sort relation.Build does. The active
//     domain is computed only when an operator reads it;
//   - operators work in pooled per-evaluation scratch (see exec): binding
//     sets, a row arena, hash-join and dedup indexes and operand lists
//     are reused across evaluations, and no row carved from the scratch
//     outlives its evaluation, so an evaluation allocates only its
//     result, one exact-size slab of rows;
//   - a query that is one atom of distinct variables, possibly under a
//     non-vacuous ∃, with every head variable in the atom (τ1's
//     register items, the counter's root rule) compiles to the
//     single-atom operator: a copy of the head columns of the relation's
//     sorted tuples, never the relation itself.
//
// Plans run behind eval.EvalQuery (cached per query) and eval.Eval
// (compiled per call). The other evaluator, eval.EvalQueryNaive, is
// the reference they are tested against: the fuzz corpora
// (eval.FuzzDifferentialEval, incr.FuzzIncrementalEval) pin plan ≡
// naive, and Env.WithoutPlanner (ptxml -plan=off) runs a whole
// transducer on it for differential debugging.
package plan

import (
	"fmt"
	"strings"

	"ptx/internal/logic"
	"ptx/internal/relation"
	"ptx/internal/runctl"
	"ptx/internal/value"
)

// Env is the evaluation environment a plan executes against. eval.Env
// satisfies it.
type Env interface {
	// Lookup resolves a relation name (extra relations shadow the
	// instance).
	Lookup(name string) (*relation.Relation, bool)
	// Domain returns the active domain extended with the given
	// constants, sorted.
	Domain(extraConsts []value.V) []value.V
	// Control returns the run controller (possibly nil).
	Control() *runctl.Controller
}

// Plan is a compiled query. A Plan is immutable after Compile and safe
// for concurrent Eval calls; each Eval owns its transient state.
type Plan struct {
	head    []logic.Var
	consts  []value.V
	root    node
	missing []logic.Var // head variables the root does not produce
	proj    []int       // head-order columns into root.vars ++ missing
	// atom, when set, replaces root: the query is one atom of distinct
	// variables, possibly under a non-vacuous ∃, with every head
	// variable in it, so the result is the head columns (proj, into the
	// relation) of the atom's relation.
	atom *nScan
}

// node is one operator of the compiled tree. vars() is the fixed
// output variable order, resolved at compile time.
type node interface {
	vars() []logic.Var
	exec(x *exec) (*bset, error)
	explain(sb *strings.Builder, depth int)
}

// Compile lowers q to an executable plan. The query's formula is
// rewritten to NNF first, so negation reaches the operator tree only
// as anti-join filters or complements over single atoms/fixpoints.
func Compile(q *logic.Query) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	f := logic.NNF(q.F)
	head := q.Head()
	if s, cols := singleAtom(f, head); s != nil {
		return &Plan{head: head, atom: s, proj: cols}, nil
	}
	root := compileChain(f, head)
	if root == nil {
		var err error
		if root, err = compileNode(f); err != nil {
			return nil, err
		}
	}
	rv := root.vars()
	missing := varsMissing(head, rv)
	all := make([]logic.Var, 0, len(rv)+len(missing))
	all = append(all, rv...)
	all = append(all, missing...)
	proj, err := projection(all, head)
	if err != nil {
		return nil, err
	}
	// The root's rows go to relation.Build, which deduplicates by sort,
	// so a root projection or union skips its hash dedup. Nested ones
	// keep it: it bounds the sizes of the joins above them.
	switch n := root.(type) {
	case *nProject:
		n.keepDups = true
	case *nUnion:
		n.keepDups = true
	}
	return &Plan{head: head, consts: logic.Constants(q.F), root: root, missing: missing, proj: proj}, nil
}

// Eval executes the plan against env and returns the result relation
// over the query head, identical to eval.EvalQueryNaive's. The result
// is sealed (relation.Build): its rows are deduplicated once, by the
// sort that puts them in canonical order. The operators work in
// pooled scratch (see exec), so the result — its rows copied into one
// slab — is all an evaluation allocates once the pool is warm.
func (p *Plan) Eval(env Env) (*relation.Relation, error) {
	ctl := env.Control()
	// An evaluation over empty relations may never tick; check once
	// up front so a canceled run aborts promptly.
	if err := ctl.Canceled(); err != nil {
		return nil, err
	}
	if p.atom != nil {
		// A copy, never the relation itself: instance relations mutate
		// (Instance.Apply) and results outlive the run in the memo.
		rel, err := p.atom.check(env.Lookup(p.atom.rel))
		if err != nil {
			return nil, err
		}
		return result(ctl, rel.Sorted(), p.proj)
	}
	x := newExec(env, ctl, p.consts)
	defer x.release()
	b, err := p.root.exec(x)
	if err != nil {
		return nil, err
	}
	if b, err = x.expand(b, p.missing); err != nil {
		return nil, err
	}
	return result(ctl, b.rows, p.proj)
}

// result copies the cols of rows into one exact-size slab and seals
// them as a relation. A one-row result of width ≤ 3 is one object
// (relation.BuildOne).
func result(ctl *runctl.Controller, rows []value.Tuple, cols []int) (*relation.Relation, error) {
	w := len(cols)
	if len(rows) == 1 && w <= 3 {
		if err := ctl.Tick(); err != nil {
			return nil, err
		}
		var row [3]value.V
		for i, c := range cols {
			row[i] = rows[0][c]
		}
		return relation.BuildOne(row[:w]), nil
	}
	slab := make([]value.V, len(rows)*w)
	out := make([]value.Tuple, len(rows))
	for j, t := range rows {
		if err := ctl.Tick(); err != nil {
			return nil, err
		}
		row := slab[j*w : (j+1)*w : (j+1)*w]
		for i, c := range cols {
			row[i] = t[c]
		}
		out[j] = row
	}
	return relation.Build(w, out), nil
}

// singleAtom recognizes a formula (in NNF) that is one atom, possibly
// under ∃, with no constants, no repeated variables, every ∃-bound
// variable in the atom (a vacuous ∃ depends on the active domain) and
// every head variable free in it. It returns the atom's scan and the
// head's columns in the atom's relation, or nil.
func singleAtom(f logic.Formula, head []logic.Var) (*nScan, []int) {
	var bound []logic.Var
	for e, ok := f.(*logic.Exists); ok; e, ok = f.(*logic.Exists) {
		bound = append(bound, e.Bound...)
		f = e.F
	}
	a, ok := f.(*logic.Atom)
	if !ok {
		return nil, nil
	}
	s, err := compileScan(a)
	if err != nil || !s.whole || len(varsMissing(bound, s.out)) > 0 {
		return nil, nil
	}
	cols := make([]int, len(head))
	for i, v := range head {
		// s.whole: each variable's column is its position in s.out.
		if cols[i] = varPos(s.out, v); cols[i] < 0 || varPos(bound, v) >= 0 {
			return nil, nil
		}
	}
	return s, cols
}

// Explain renders the operator tree for diagnostics and golden tests.
func (p *Plan) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan head=%s\n", varList(p.head))
	if p.atom != nil {
		indent(&sb, 1)
		fmt.Fprintf(&sb, "single-atom %s -> columns %v\n", p.atom.atom, p.proj)
		return sb.String()
	}
	p.root.explain(&sb, 1)
	if len(p.missing) > 0 {
		indent(&sb, 1)
		fmt.Fprintf(&sb, "expand %s over adom\n", varList(p.missing))
	}
	return sb.String()
}

// compileNode lowers an NNF formula to an operator.
func compileNode(f logic.Formula) (node, error) {
	switch g := f.(type) {
	case *logic.Truth:
		if g.B {
			return &nUnit{}, nil
		}
		return &nEmpty{}, nil
	case *logic.Atom:
		return compileScan(g)
	case *logic.Eq, *logic.Neq:
		// A standalone (in)equality is a conjunction of one filter: the
		// conj operator's bind/expand machinery materializes it over
		// the active domain only as far as necessary.
		return compileConj([]logic.Formula{f})
	case *logic.And:
		var cs []logic.Formula
		logic.FlattenConj(g, &cs)
		return compileConj(cs)
	case *logic.Or:
		l, err := compileNode(g.L)
		if err != nil {
			return nil, err
		}
		r, err := compileNode(g.R)
		if err != nil {
			return nil, err
		}
		return newUnion(l, r)
	case *logic.Not:
		// In NNF, ¬ survives only over atoms and fixpoints, so the
		// complement's arity is the atom's variable count, never an
		// accumulated conjunction width.
		child, err := compileNode(g.F)
		if err != nil {
			return nil, err
		}
		return &nComplement{child: child}, nil
	case *logic.Exists:
		child, err := compileNode(g.F)
		if err != nil {
			return nil, err
		}
		return newProject(child, g.Bound)
	case *logic.Forall:
		// ∀x̄ φ ≡ ¬∃x̄ ¬φ with the inner negation pushed to NNF, so only
		// the final (low-arity) complement touches the active domain.
		// Bound variables ¬φ does not mention must still range over the
		// domain before being projected away — with an empty active
		// domain ∀x ψ is vacuously true even when ψ is false, which a
		// bare column-drop ∃ gets wrong.
		inner, err := compileNode(logic.Negate(g.F))
		if err != nil {
			return nil, err
		}
		boundMiss := varsMissing(g.Bound, inner.vars())
		all1 := make([]logic.Var, 0, len(inner.vars())+len(boundMiss))
		all1 = append(all1, inner.vars()...)
		all1 = append(all1, boundMiss...)
		bound := make(map[logic.Var]bool, len(g.Bound))
		for _, v := range g.Bound {
			bound[v] = true
		}
		var exProj []int
		var exVars []logic.Var
		for i, v := range all1 {
			if !bound[v] {
				exProj = append(exProj, i)
				exVars = append(exVars, v)
			}
		}
		out := logic.FreeVars(g)
		miss := varsMissing(out, exVars)
		all2 := make([]logic.Var, 0, len(exVars)+len(miss))
		all2 = append(all2, exVars...)
		all2 = append(all2, miss...)
		proj, err := projection(all2, out)
		if err != nil {
			return nil, err
		}
		return &nForall{
			out: out, inner: inner,
			boundMiss: boundMiss, exProj: exProj, exVars: exVars,
			miss: miss, proj: proj,
		}, nil
	case *logic.Fixpoint:
		return compileFixpoint(g)
	}
	return nil, fmt.Errorf("plan: unknown formula %T", f)
}

// compileConj splits a flattened conjunction into positive operators
// and filters ((in)equalities and negations, applied on bound
// prefixes at execution time).
func compileConj(cs []logic.Formula) (node, error) {
	n := &nConj{}
	seen := make(map[logic.Var]bool)
	addOut := func(vs []logic.Var) {
		for _, v := range vs {
			if !seen[v] {
				seen[v] = true
				n.out = append(n.out, v)
			}
		}
	}
	for _, c := range cs {
		switch g := c.(type) {
		case *logic.Eq:
			n.filters = append(n.filters, &filter{kind: fEq, l: g.L, r: g.R, frees: logic.FreeVars(g)})
		case *logic.Neq:
			n.filters = append(n.filters, &filter{kind: fNeq, l: g.L, r: g.R, frees: logic.FreeVars(g)})
		case *logic.Not:
			sub, err := compileNode(g.F)
			if err != nil {
				return nil, err
			}
			n.filters = append(n.filters, &filter{kind: fNot, sub: sub, frees: logic.FreeVars(g)})
		default:
			p, err := compileNode(c)
			if err != nil {
				return nil, err
			}
			n.positives = append(n.positives, p)
			addOut(p.vars())
		}
	}
	for _, f := range n.filters {
		addOut(f.frees)
	}
	return n, nil
}

// compileScan resolves an atom's variable layout: distinct variables
// in first-occurrence order, the positions that must agree for
// repeated variables, constant checks, and the column driving an
// index lookup.
func compileScan(a *logic.Atom) (*nScan, error) {
	s := &nScan{rel: a.Rel, atom: a, constCol: -1}
	first := make(map[logic.Var]int) // var → position of first occurrence
	for i, t := range a.Args {
		switch u := t.(type) {
		case logic.Var:
			if p, ok := first[u]; ok {
				s.dups = append(s.dups, [2]int{i, p})
			} else {
				first[u] = i
				s.out = append(s.out, u)
				s.varFirst = append(s.varFirst, i)
			}
		case logic.Const:
			s.consts = append(s.consts, constCheck{pos: i, v: value.V(u)})
			if s.constCol < 0 {
				s.constCol = i
				s.constVal = value.V(u)
			}
		default:
			return nil, fmt.Errorf("plan: unknown term %T in atom %s", t, a)
		}
	}
	s.whole = len(s.varFirst) == len(a.Args)
	return s, nil
}

func compileFixpoint(fp *logic.Fixpoint) (node, error) {
	k := len(fp.Vars)
	if len(fp.Args) != k {
		return nil, fmt.Errorf("eval: fixpoint %s applied to %d terms, expects %d", fp.Rel, len(fp.Args), k)
	}
	body, err := compileNode(logic.NNF(fp.Body))
	if err != nil {
		return nil, err
	}
	miss := varsMissing(fp.Vars, body.vars())
	all := make([]logic.Var, 0, len(body.vars())+len(miss))
	all = append(all, body.vars()...)
	all = append(all, miss...)
	proj := make([]int, k)
	idx := varIndex(all)
	for i, v := range fp.Vars {
		ci, ok := idx[v]
		if !ok {
			return nil, fmt.Errorf("eval: fixpoint variable %s lost during evaluation", v)
		}
		proj[i] = ci
	}
	apply, err := compileScan(&logic.Atom{Rel: fp.Rel, Args: fp.Args})
	if err != nil {
		return nil, err
	}
	return &nFixpoint{rel: fp.Rel, fvars: fp.Vars, body: body, bodyMiss: miss, bodyProj: proj, apply: apply}, nil
}

func newUnion(l, r node) (node, error) {
	out := append([]logic.Var{}, l.vars()...)
	out = append(out, varsMissing(r.vars(), l.vars())...)
	n := &nUnion{out: out, l: l, r: r}
	var err error
	if n.lMiss, n.lProj, err = alignTo(l.vars(), out); err != nil {
		return nil, err
	}
	if n.rMiss, n.rProj, err = alignTo(r.vars(), out); err != nil {
		return nil, err
	}
	return n, nil
}

func newProject(child node, drop []logic.Var) (node, error) {
	dropSet := make(map[logic.Var]bool, len(drop))
	for _, v := range drop {
		dropSet[v] = true
	}
	var out []logic.Var
	var cols []int
	for i, v := range child.vars() {
		if !dropSet[v] {
			out = append(out, v)
			cols = append(cols, i)
		}
	}
	vacuous := len(varsMissing(drop, child.vars())) > 0
	return &nProject{out: out, child: child, cols: cols, vacuous: vacuous}, nil
}

// alignTo computes the expansion+projection that takes bindings over
// have to bindings over want: the want-variables missing from have
// (appended by expansion, in want order) and the projection columns
// from have·missing to want order.
func alignTo(have, want []logic.Var) (miss []logic.Var, proj []int, err error) {
	miss = varsMissing(want, have)
	all := make([]logic.Var, 0, len(have)+len(miss))
	all = append(all, have...)
	all = append(all, miss...)
	proj, err = projection(all, want)
	return miss, proj, err
}

// varsMissing returns the elements of want absent from have, in want
// order, without duplicates.
func varsMissing(want, have []logic.Var) []logic.Var {
	set := make(map[logic.Var]bool, len(have))
	for _, v := range have {
		set[v] = true
	}
	var out []logic.Var
	for _, v := range want {
		if !set[v] {
			set[v] = true
			out = append(out, v)
		}
	}
	return out
}

// projection maps want to column positions in have.
func projection(have, want []logic.Var) ([]int, error) {
	idx := varIndex(have)
	cols := make([]int, len(want))
	for i, v := range want {
		ci, ok := idx[v]
		if !ok {
			return nil, fmt.Errorf("plan: variable %s not available in %v", v, have)
		}
		cols[i] = ci
	}
	return cols, nil
}

func varIndex(vs []logic.Var) map[logic.Var]int {
	idx := make(map[logic.Var]int, len(vs))
	for i, v := range vs {
		idx[v] = i
	}
	return idx
}

func varList(vs []logic.Var) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = string(v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

func indent(sb *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
}
