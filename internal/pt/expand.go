package pt

import (
	"fmt"

	"ptx/internal/eval"
	"ptx/internal/relation"
	"ptx/internal/value"
)

// ChildSpec is one ordered child a configuration generates: the exact
// (state, tag, register) triple Step materializes as a tree node.
type ChildSpec struct {
	State string
	Tag   string
	Reg   *relation.Relation
}

// ExpandConfig performs one rule step of the transducer: it evaluates
// the rule for (state, tag) with register reg against base (an Env over
// the database instance) and returns the ordered child specs, plus the
// number of queries actually evaluated. Each fresh evaluation is first
// charged to base's run controller (cancellation, fault plan, query
// budget); memo hits are free and charge nothing. A missing or empty
// rule yields nil specs. The ancestor stop condition, subtree sharing
// and node accounting are the CALLER's job — RunContext, StepRun and
// incremental repair all expand configurations through this one step.
func (t *Transducer) ExpandConfig(state, tag string, reg *relation.Relation, base *eval.Env, memo *eval.Memo) ([]ChildSpec, int, error) {
	rule, ok := t.Rule(state, tag)
	if !ok || len(rule.Items) == 0 {
		return nil, 0, nil
	}
	env := base.WithRelation(RegRel, reg)
	var regFP string
	if memo != nil {
		regFP = reg.Key()
	}
	var specs []ChildSpec
	queries := 0
	for _, it := range rule.Items {
		var result *relation.Relation
		if memo != nil {
			if rel, ok := memo.Get(it.Query, regFP); ok {
				result = rel
			}
		}
		if result == nil {
			if err := base.Control().Query(); err != nil {
				return nil, queries, err
			}
			queries++
			rel, err := eval.EvalQuery(it.Query, env)
			if err != nil {
				return nil, queries, fmt.Errorf("pt %s: rule (%s,%s) item (%s,%s): %w",
					t.Name, rule.State, rule.Tag, it.State, it.Tag, err)
			}
			// Memoizing before the caller commits the step is sound:
			// entries are stored only after a successful evaluation, and
			// determinism makes them valid whether or not it commits.
			if memo != nil {
				memo.Put(it.Query, regFP, rel)
			}
			result = rel
		}
		groups, err := groupByPrefix(result, len(it.Query.GroupVars))
		if err != nil {
			return nil, queries, fmt.Errorf("pt %s: rule (%s,%s) item (%s,%s): %w",
				t.Name, rule.State, rule.Tag, it.State, it.Tag, err)
		}
		for _, g := range groups {
			specs = append(specs, ChildSpec{State: it.State, Tag: it.Tag, Reg: g})
		}
	}
	return specs, queries, nil
}

// groupByPrefix splits a query result (columns x̄·ȳ) into the groups
// S_1,…,S_m of the paper: one group per distinct x̄-prefix d̄, each
// holding {d̄}×{ē | φ(d̄,ē)}, ordered by d̄ in the domain order.
//
// With k = 0 (|x̄| = 0) the whole nonempty result is a single group;
// with k = arity (|ȳ| = 0) every group is a singleton tuple.
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
	if result.Empty() {
		return nil, nil
	}
	if k == 0 {
		return []*relation.Relation{result}, nil
	}
	// Each iterates in value.CompareTuples order, a lexicographic total
	// order, so tuples sharing a k-prefix are adjacent and the prefixes
	// arrive in domain order: a group ends where the prefix changes.
	var out []*relation.Relation
	var prev value.Tuple
	result.Each(func(t value.Tuple) bool {
		if len(out) == 0 || !samePrefix(prev, t, k) {
			out = append(out, relation.New(result.Arity()))
		}
		out[len(out)-1].Add(t)
		prev = t
		return true
	})
	return out, nil
}

func samePrefix(a, b value.Tuple, k int) bool {
	for i := 0; i < k; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
