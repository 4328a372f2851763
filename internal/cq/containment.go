package cq

import (
	"fmt"

	"ptx/internal/eval"
	"ptx/internal/logic"
	"ptx/internal/relation"
	"ptx/internal/value"
)

// MaxPartitionClasses bounds the number of equality classes a query may
// have before containment checking refuses (the number of canonical
// databases is the Bell number of the class count). Analysis queries in
// this repository stay far below the bound.
const MaxPartitionClasses = 12

// Contained decides Q1 ⊆ Q2 for conjunctive queries with ≠, following
// Klug's criterion: Q1 ⊆ Q2 iff for every identification of Q1's
// variables consistent with Q1's constraints, the frozen head of Q1 is
// in Q2 evaluated over the frozen (canonical) database. Identifications
// matter because ≠ in Q2 can distinguish merged and unmerged variables.
func Contained(q1, q2 *NF) (bool, error) {
	if len(q1.Head) != len(q2.Head) {
		return false, fmt.Errorf("cq: containment of different head widths %d vs %d", len(q1.Head), len(q2.Head))
	}
	if !q1.Satisfiable() {
		return true, nil // the empty query is contained in everything
	}
	return forEachCanonicalDB(q1, q2.Consts(), canonicalSchema(q1, q2), func(inst *relation.Instance, head value.Tuple) (bool, error) {
		return headInResult(q2, inst, head)
	})
}

// Equivalent decides Q1 ≡ Q2 (both containments).
func Equivalent(q1, q2 *NF) (bool, error) {
	c1, err := Contained(q1, q2)
	if err != nil || !c1 {
		return false, err
	}
	return Contained(q2, q1)
}

// UCQ is a union of conjunctive queries (all with the same head width).
type UCQ []*NF

// ContainedUCQ decides Q ⊆ ∪u.
func ContainedUCQ(q *NF, u UCQ) (bool, error) {
	if !q.Satisfiable() {
		return true, nil
	}
	var otherConsts []value.V
	for _, d := range u {
		otherConsts = append(otherConsts, d.Consts()...)
	}
	return forEachCanonicalDB(q, otherConsts, canonicalSchema(append([]*NF{q}, u...)...), func(inst *relation.Instance, head value.Tuple) (bool, error) {
		for _, d := range u {
			ok, err := headInResult(d, inst, head)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	})
}

// EquivalentUCQ decides ∪u1 ≡ ∪u2.
func EquivalentUCQ(u1, u2 UCQ) (bool, error) {
	for _, q := range u1 {
		ok, err := ContainedUCQ(q, u2)
		if err != nil || !ok {
			return false, err
		}
	}
	for _, q := range u2 {
		ok, err := ContainedUCQ(q, u1)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// headInResult evaluates q over inst and checks whether head is among
// the answers.
func headInResult(q *NF, inst *relation.Instance, head value.Tuple) (bool, error) {
	env := eval.NewEnv(inst)
	b, err := eval.Eval(q.Formula(), env)
	if err != nil {
		return false, err
	}
	// Build the expected assignment for q's head variables, honoring
	// constants and repeated variables in the head.
	want := make(map[logic.Var]value.V)
	for i, h := range q.Head {
		if prev, ok := want[h]; ok && prev != head[i] {
			return false, nil // repeated head var must repeat the value
		}
		want[h] = head[i]
	}
	idx := make(map[logic.Var]int, len(b.Vars))
	for i, v := range b.Vars {
		idx[v] = i
	}
	found := false
	b.Rel.Each(func(t value.Tuple) bool {
		for v, val := range want {
			i, ok := idx[v]
			if !ok {
				// Head var unconstrained by the body: any value matches.
				continue
			}
			if t[i] != val {
				return true
			}
		}
		found = true
		return false
	})
	return found, nil
}

// forEachCanonicalDB enumerates the canonical databases of q — one per
// consistent identification (partition) of q's equality classes — and
// calls check with the instance and frozen head. It returns true iff
// check holds for every canonical database. extraConsts are constants of
// the *other* side of the containment: q's variables must be allowed to
// coincide with them, so each becomes a pseudo-class variables may merge
// into.
func forEachCanonicalDB(q *NF, extraConsts []value.V, schema *relation.Schema, check func(*relation.Instance, value.Tuple) (bool, error)) (bool, error) {
	uf := q.buildClasses()
	for _, c := range extraConsts {
		uf.add(logic.Const(c))
	}
	vals, ok := classValues(q, uf)
	if !ok {
		return true, nil // unsatisfiable
	}
	// Collect class roots.
	rootSet := make(map[string]bool)
	var roots []string
	for k := range uf.parent {
		r := uf.find(k)
		if !rootSet[r] {
			rootSet[r] = true
			roots = append(roots, r)
		}
	}
	sortStrings(roots)
	if len(roots) > MaxPartitionClasses {
		return false, fmt.Errorf("cq: query has %d equality classes; containment bound is %d",
			len(roots), MaxPartitionClasses)
	}
	// Explicit ≠ pairs at class level.
	neq := make(map[[2]string]bool)
	for _, c := range q.Constraints {
		if c.Eq {
			continue
		}
		lr, rr := uf.find(termKey(c.L)), uf.find(termKey(c.R))
		neq[[2]string{lr, rr}] = true
		neq[[2]string{rr, lr}] = true
	}

	// Enumerate partitions of roots via restricted-growth strings.
	group := make([]int, len(roots))
	allOK := true
	var rec func(i, maxg int) (bool, error)
	rec = func(i, maxg int) (bool, error) {
		if !allOK {
			return false, nil
		}
		if i == len(roots) {
			okPart, err := tryPartition(q, uf, vals, neq, roots, group, maxg, schema, check)
			if err != nil {
				return false, err
			}
			if !okPart {
				allOK = false
			}
			return allOK, nil
		}
		for g := 0; g <= maxg; g++ {
			group[i] = g
			nm := maxg
			if g == maxg {
				nm = maxg + 1
			}
			if _, err := rec(i+1, nm); err != nil {
				return false, err
			}
			if !allOK {
				return false, nil
			}
		}
		return allOK, nil
	}
	if _, err := rec(0, 0); err != nil {
		return false, err
	}
	return allOK, nil
}

// tryPartition validates one identification and, if consistent, builds
// the canonical database and invokes check. Inconsistent partitions are
// skipped (they don't correspond to a valuation of Q1). It returns true
// if the partition was skipped or check held.
func tryPartition(q *NF, uf *classes, vals map[string]value.V, neq map[[2]string]bool,
	roots []string, group []int, ngroups int,
	schema *relation.Schema, check func(*relation.Instance, value.Tuple) (bool, error)) (bool, error) {

	// Consistency: no ≠ inside a group; at most one constant per group.
	groupVal := make(map[int]value.V)
	for i, r := range roots {
		if v, ok := vals[r]; ok {
			if prev, seen := groupVal[group[i]]; seen && prev != v {
				return true, nil // two constants merged: skip
			}
			groupVal[group[i]] = v
		}
	}
	for i := range roots {
		for j := i + 1; j < len(roots); j++ {
			if group[i] == group[j] && neq[[2]string{roots[i], roots[j]}] {
				return true, nil // ≠ violated: skip
			}
		}
	}
	// Distinct groups must receive distinct values; groups with distinct
	// constants already differ, fresh values are made unique below.
	// A ≠ between two groups holds automatically since values differ.

	// Assign a value to each group: its constant if any, else a fresh
	// value not colliding with any constant.
	groupOf := make(map[string]int, len(roots))
	for i, r := range roots {
		groupOf[r] = group[i]
	}
	taken := make(map[value.V]bool)
	for _, v := range groupVal {
		taken[v] = true
	}
	for _, v := range q.Consts() {
		taken[v] = true
	}
	next := 0
	valueOf := make([]value.V, ngroups)
	for g := 0; g < ngroups; g++ {
		if v, ok := groupVal[g]; ok {
			valueOf[g] = v
			continue
		}
		for {
			cand := value.V(fmt.Sprintf("u%d", next))
			next++
			if !taken[cand] {
				taken[cand] = true
				valueOf[g] = cand
				break
			}
		}
	}
	valOfTerm := func(t logic.Term) value.V {
		return valueOf[groupOf[uf.find(termKey(t))]]
	}

	// Freeze the body into an instance.
	inst := relation.NewInstance(schema)
	for _, a := range q.Atoms {
		tup := make(value.Tuple, len(a.Args))
		for i, t := range a.Args {
			tup[i] = valOfTerm(t)
		}
		inst.Rel(a.Rel).Add(tup)
	}
	head := make(value.Tuple, len(q.Head))
	for i, h := range q.Head {
		head[i] = valOfTerm(h)
	}
	return check(inst, head)
}

// canonicalSchema derives a schema covering every relation mentioned in
// the query.
func canonicalSchema(qs ...*NF) *relation.Schema {
	s := relation.NewSchema()
	for _, q := range qs {
		for _, a := range q.Atoms {
			s.MustDeclare(a.Rel, len(a.Args))
		}
	}
	return s
}

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// EvalUCQ evaluates a union of conjunctive queries over an instance,
// returning the union of the disjuncts' answer relations (columns in
// head order). All disjuncts must share one head width.
func EvalUCQ(u UCQ, inst *relation.Instance) (*relation.Relation, error) {
	if len(u) == 0 {
		return nil, fmt.Errorf("cq: empty UCQ has no width")
	}
	width := len(u[0].Head)
	out := relation.New(width)
	for _, q := range u {
		if len(q.Head) != width {
			return nil, fmt.Errorf("cq: UCQ disjunct widths differ: %d vs %d", len(q.Head), width)
		}
		env := eval.NewEnv(inst)
		b, err := eval.Eval(q.Formula(), env)
		if err != nil {
			return nil, err
		}
		idx := make(map[logic.Var]int, len(b.Vars))
		for i, v := range b.Vars {
			idx[v] = i
		}
		b.Rel.Each(func(t value.Tuple) bool {
			h := make(value.Tuple, width)
			ok := true
			for i, hv := range q.Head {
				ci, bound := idx[hv]
				if !bound {
					ok = false // head var unconstrained: skip defensively
					break
				}
				h[i] = t[ci]
			}
			if ok {
				out.Add(h)
			}
			return true
		})
	}
	return out, nil
}
