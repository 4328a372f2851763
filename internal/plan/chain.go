package plan

import (
	"fmt"
	"strings"

	"ptx/internal/logic"
	"ptx/internal/relation"
	"ptx/internal/value"
)

// maxChainAtoms bounds the conjunctions compiled to a chain: Compile
// precomputes one step order per start atom.
const maxChainAtoms = 8

// smallRel is the relation size up to which a probe scans the relation
// instead of looking the value up in a column index. A per-node
// register is read a few times and dropped, so an index built for it
// costs more than the scans it saves.
const smallRel = 8

// probeTuples returns the tuples of rel that may hold v in column col:
// v's index bucket, or every tuple of a relation of at most smallRel
// tuples. The caller checks the column.
func probeTuples(rel *relation.Relation, col int, v value.V) []value.Tuple {
	if rel.Len() <= smallRel {
		return rel.Sorted()
	}
	return rel.Lookup(col, v)
}

// nChain is a conjunction of two to maxChainAtoms atoms that share
// variables, possibly under a non-vacuous ∃, with (in)equalities over
// the variables the atoms bind and every head variable in an atom: the
// PT(CQ) rule query that joins a register with base relations. It runs
// as one depth-first nested loop over slots resolved at compile time,
// one per variable and one per filter constant. The loop starts at the
// atom with the smallest extent; each later step probes its relation
// with a slot bound before it, binds its fresh slots, and checks the
// repeated variables, constants, other bound slots and the filters
// covered by then. Every complete binding appends its head row.
type nChain struct {
	head   []logic.Var
	headAt []int // the head variables' slots
	atoms  []*nScan
	slots  [][]int   // slots[a][i] is the slot of atoms[a].out[i]
	fixed  []value.V // the filter constants, in the slots after the variables'
	nslots int
	// filters are the (in)equality conjuncts, for Explain.
	filters []*filter
	orders  [][]chainStep // orders[a]: the step order starting at atom a
}

// chainStep is one level of the nested loop.
type chainStep struct {
	atom   int
	probe  int   // the column probed with slot from; -1 on the first step
	from   int   // the slot whose value is probed
	checks []int // (column, slot) pairs of the bound variables, probe included
	binds  []int // (column, slot) pairs of the variables this step binds
	tests  []slotTest
}

// slotTest is an (in)equality between two slots.
type slotTest struct {
	l, r int
	eq   bool
}

// compileChain returns the chain for f, in NNF, over head, or nil when
// f has another shape: ¬, ∨, ∀, µ⁺, ⊤/⊥, an ∃ under the ∧, a vacuous ∃,
// a head or filter variable no atom binds, atoms that do not all share
// variables, or fewer than two or more than maxChainAtoms atoms.
func compileChain(f logic.Formula, head []logic.Var) node {
	var bound []logic.Var
	for e, ok := f.(*logic.Exists); ok; e, ok = f.(*logic.Exists) {
		bound = append(bound, e.Bound...)
		f = e.F
	}
	var cs []logic.Formula
	logic.FlattenConj(f, &cs)
	n := &nChain{head: head}
	slot := make(map[logic.Var]int)
	for _, c := range cs {
		switch g := c.(type) {
		case *logic.Atom:
			s, err := compileScan(g)
			if err != nil {
				return nil
			}
			sl := make([]int, len(s.out))
			for i, v := range s.out {
				if _, ok := slot[v]; !ok {
					slot[v] = len(slot)
				}
				sl[i] = slot[v]
			}
			n.atoms = append(n.atoms, s)
			n.slots = append(n.slots, sl)
		case *logic.Eq:
			n.filters = append(n.filters, &filter{kind: fEq, l: g.L, r: g.R})
		case *logic.Neq:
			n.filters = append(n.filters, &filter{kind: fNeq, l: g.L, r: g.R})
		default:
			return nil
		}
	}
	if len(n.atoms) < 2 || len(n.atoms) > maxChainAtoms {
		return nil
	}
	term := func(t logic.Term) (int, bool) {
		if c, ok := t.(logic.Const); ok {
			n.fixed = append(n.fixed, value.V(c))
			return len(slot) + len(n.fixed) - 1, true
		}
		v, isVar := t.(logic.Var)
		s, ok := slot[v]
		return s, isVar && ok
	}
	tests := make([]slotTest, len(n.filters))
	for i, f := range n.filters {
		l, lok := term(f.l)
		r, rok := term(f.r)
		if !lok || !rok {
			return nil
		}
		tests[i] = slotTest{l: l, r: r, eq: f.kind == fEq}
	}
	for _, v := range bound {
		if _, ok := slot[v]; !ok {
			return nil
		}
	}
	for _, v := range head {
		s, ok := slot[v]
		if !ok || varPos(bound, v) >= 0 {
			return nil
		}
		n.headAt = append(n.headAt, s)
	}
	n.nslots = len(slot) + len(n.fixed)
	n.orders = make([][]chainStep, len(n.atoms))
	for a := range n.atoms {
		n.orders[a] = n.order(a, len(slot), tests)
	}
	// Every order reaches all atoms exactly when they share variables
	// transitively.
	if n.orders[0] == nil {
		return nil
	}
	return n
}

// order lays out the nested loop that starts at atom start, or returns
// nil when some atom shares no variable with the ones before it. The
// slots from nvars on hold constants and are bound from the start.
func (n *nChain) order(start, nvars int, tests []slotTest) []chainStep {
	bound := make([]bool, n.nslots)
	for s := nvars; s < n.nslots; s++ {
		bound[s] = true
	}
	used := make([]bool, len(n.atoms))
	done := make([]bool, len(tests))
	steps := make([]chainStep, 0, len(n.atoms))
	for a := start; a >= 0; a = n.next(bound, used) {
		st := chainStep{atom: a, probe: -1}
		for i, sl := range n.slots[a] {
			col := n.atoms[a].varFirst[i]
			if !bound[sl] {
				st.binds = append(st.binds, col, sl)
				continue
			}
			if st.probe < 0 {
				st.probe, st.from = col, sl
			}
			st.checks = append(st.checks, col, sl)
		}
		for i := 1; i < len(st.binds); i += 2 {
			bound[st.binds[i]] = true
		}
		used[a] = true
		for i, t := range tests {
			if !done[i] && bound[t.l] && bound[t.r] {
				done[i] = true
				st.tests = append(st.tests, t)
			}
		}
		steps = append(steps, st)
	}
	if len(steps) < len(n.atoms) {
		return nil
	}
	return steps
}

// next picks the unused atom sharing the most bound slots, the first
// on a tie, to join next; -1 when none shares one.
func (n *nChain) next(bound, used []bool) int {
	best, most := -1, 0
	for a, sl := range n.slots {
		shared := 0
		for _, s := range sl {
			if bound[s] {
				shared++
			}
		}
		if !used[a] && shared > most {
			best, most = a, shared
		}
	}
	return best
}

func (n *nChain) vars() []logic.Var { return n.head }

func (n *nChain) exec(x *exec) (*bset, error) {
	r := chainRun{n: n, x: x, slots: x.row(n.nslots), out: x.set(n.head)}
	start, least := 0, 0
	for a, s := range n.atoms {
		rel, err := s.resolve(x)
		if err != nil {
			return nil, err
		}
		r.rels[a] = rel
		if e := s.extent(rel); a == 0 || e < least {
			start, least = a, e
		}
	}
	if least == 0 {
		return r.out, nil
	}
	r.steps = n.orders[start]
	copy(r.slots[n.nslots-len(n.fixed):], n.fixed)
	if err := r.step(0); err != nil {
		return nil, err
	}
	return r.out, nil
}

// chainRun is the state of one nested loop: the looked-up relations,
// the slot values bound so far and the head rows found.
type chainRun struct {
	n     *nChain
	x     *exec
	rels  [maxChainAtoms]*relation.Relation
	steps []chainStep
	slots []value.V
	out   *bset
}

// step runs level d of the loop over the tuples its atom contributes,
// ticking the run controller per examined tuple.
func (r *chainRun) step(d int) error {
	st := &r.steps[d]
	s, rel := r.n.atoms[st.atom], r.rels[st.atom]
	var ts []value.Tuple
	if st.probe < 0 {
		ts = s.candidates(rel)
	} else {
		ts = probeTuples(rel, st.probe, r.slots[st.from])
	}
tuples:
	for _, t := range ts {
		if err := r.x.ctl.Tick(); err != nil {
			return err
		}
		if !s.matches(t) {
			continue
		}
		for i := 0; i < len(st.checks); i += 2 {
			if t[st.checks[i]] != r.slots[st.checks[i+1]] {
				continue tuples
			}
		}
		for i := 0; i < len(st.binds); i += 2 {
			r.slots[st.binds[i+1]] = t[st.binds[i]]
		}
		for _, ft := range st.tests {
			if (r.slots[ft.l] == r.slots[ft.r]) != ft.eq {
				continue tuples
			}
		}
		if d+1 < len(r.steps) {
			if err := r.step(d + 1); err != nil {
				return err
			}
			continue
		}
		row := r.x.row(len(r.n.headAt))
		for i, sl := range r.n.headAt {
			row[i] = r.slots[sl]
		}
		r.out.rows = append(r.out.rows, row)
	}
	return nil
}

// explain renders the loop in the order that starts at the first atom;
// a run starts at the atom with the smallest extent instead.
func (n *nChain) explain(sb *strings.Builder, d int) {
	indent(sb, d)
	fmt.Fprintf(sb, "conj nested-loop -> %s", varList(n.head))
	writeFilters(sb, n.filters)
	sb.WriteString("\n")
	for _, st := range n.orders[0] {
		if s := n.atoms[st.atom]; st.probe < 0 {
			s.explain(sb, d+1)
		} else {
			s.explainAs(sb, d+1, "probe", st.probe)
		}
	}
}
