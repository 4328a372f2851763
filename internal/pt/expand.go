package pt

import (
	"fmt"
	"slices"

	"ptx/internal/eval"
	"ptx/internal/relation"
)

// ChildSpec is one ordered child a configuration generates: the exact
// (state, tag, register) triple Step materializes as a tree node.
type ChildSpec struct {
	State string
	Tag   string
	Reg   *relation.Relation
}

// Expander performs one rule step of the transducer for one caller:
// Expand evaluates the rule for (state, tag) with register reg against
// base (an Env over the database instance) and returns the ordered
// child specs, plus the number of queries actually evaluated. The
// children of an item (qᵢ, aᵢ, φᵢ) depend only on φᵢ and reg
// (Definition 3.1), so each distinct query of the rule (AddRule interns
// identical ones to one object) is evaluated once, and an item
// repeating an earlier item's query, as the a and a2 copies of
// Proposition 1(4)'s counter do, reuses that result and its groups.
// Each fresh evaluation is first charged to base's run controller
// (cancellation, fault plan, query budget); memo hits and repeats are
// free and charge nothing. A missing or empty rule yields nil specs.
// The ancestor stop condition and node accounting are the run driver's
// job (driver.step).
//
// A caller keeps one Expander for all its steps: the register Env,
// built from base on the first memo miss, is re-pointed at each later
// register in place (eval.Env.Rebind; the Expander owns it alone), and
// the specs buffer is reused, so the specs Expand returns are valid
// only until its next call and callers copy them out. An Expander is
// not safe for concurrent use. Each run keeps one (newRun); incremental
// repair's walk steps through its run's, from StepRun.Expander.
type Expander struct {
	t     *Transducer
	base  *eval.Env
	memo  *eval.Memo
	env   *eval.Env
	specs []ChildSpec
	one   [1]*relation.Relation // the groups of a one-group result
}

// Expand performs the rule step for (state, tag) with register reg.
// The specs it returns are valid until its next call.
func (x *Expander) Expand(state, tag string, reg *relation.Relation) ([]ChildSpec, int, error) {
	t := x.t
	rule, ok := t.Rule(state, tag)
	if !ok || len(rule.Items) == 0 {
		return nil, 0, nil
	}
	bound := false // x.env binds RegRel to reg
	specs := x.specs[:0]
	var buf [8]*relation.Relation
	results := buf[:0] // results[i]: item i's query result
	queries := 0
	for i, it := range rule.Items {
		var result *relation.Relation
		if j := slices.IndexFunc(rule.Items[:i], func(p RHS) bool { return p.Query == it.Query }); j >= 0 {
			result = results[j]
		} else if x.memo != nil {
			if rel, ok := x.memo.Get(it.Query, reg); ok {
				result = rel
			}
		}
		if result == nil {
			if err := x.base.Control().Query(); err != nil {
				return nil, queries, err
			}
			queries++
			if x.env == nil {
				x.env = x.base.WithRelation(RegRel, reg)
			} else if !bound {
				x.env.Rebind(RegRel, reg)
			}
			bound = true
			rel, err := eval.EvalQuery(it.Query, x.env)
			if err != nil {
				return nil, queries, fmt.Errorf("pt %s: rule (%s,%s) item (%s,%s): %w",
					t.Name, rule.State, rule.Tag, it.State, it.Tag, err)
			}
			// Memoizing before the caller commits the step is sound:
			// entries are stored only after a successful evaluation, and
			// determinism makes them valid whether or not it commits.
			if x.memo != nil {
				x.memo.Put(it.Query, reg, rel)
			}
			result = rel
		}
		results = append(results, result)
		// A result whose tuples share one prefix is its own only
		// group, so it needs no grouping built or cached.
		k := len(it.Query.GroupVars)
		x.one[0] = result
		groups := x.one[:]
		if !result.OneGroup(k) {
			var err error
			if groups, err = groupByPrefix(result, k); err != nil {
				return nil, queries, fmt.Errorf("pt %s: rule (%s,%s) item (%s,%s): %w",
					t.Name, rule.State, rule.Tag, it.State, it.Tag, err)
			}
		}
		if specs == nil && len(groups) > 0 {
			specs = make([]ChildSpec, 0, len(groups)*(len(rule.Items)-i))
		}
		for _, g := range groups {
			specs = append(specs, ChildSpec{State: it.State, Tag: it.Tag, Reg: g})
		}
	}
	x.specs = specs
	return specs, queries, nil
}

// groupByPrefix splits a query result (columns x̄·ȳ) into the groups
// S_1,…,S_m of the paper: one group per distinct x̄-prefix d̄, each
// holding {d̄}×{ē | φ(d̄,ē)}, ordered by d̄ in the domain order (see
// relation.GroupByPrefix, which caches the grouping on the result, so
// a memoized result yields the same child registers at every hit).
// Expand calls it only when the result is not its own only group: a
// result whose tuples share one prefix is its own child register, the
// same object at every hit, with no grouping built.
//
// k > result.Arity() — a grouping prefix wider than the tuples it would
// be sliced from — returns a *GroupArityError. Transducer.Validate
// rejects such rules statically, so hitting this at run time means the
// result relation has the wrong width (a corrupted cache entry, or an
// evaluator bug); the typed error keeps it diagnosable instead of a
// slice-bounds panic deep in a worker.
func groupByPrefix(result *relation.Relation, k int) ([]*relation.Relation, error) {
	if k > result.Arity() {
		return nil, &GroupArityError{GroupVars: k, Arity: result.Arity()}
	}
	return result.GroupByPrefix(k), nil
}
