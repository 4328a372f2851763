package pt

import (
	"context"
	"fmt"

	"ptx/internal/eval"
	"ptx/internal/relation"
	"ptx/internal/runctl"
	"ptx/internal/xmltree"
)

// Options configures a transducer run.
type Options struct {
	// MaxNodes aborts the transformation once the generated tree exceeds
	// this many nodes; 0 means unlimited. The transformation always
	// terminates (Proposition 1(1)) but relation-store transducers can
	// legitimately produce doubly-exponential trees, so callers may want
	// a guard. OutputRelation never builds the tree: there it caps the
	// distinct configurations its walk reaches.
	MaxNodes int
	// MaxDepth aborts the transformation once the tree grows deeper than
	// this many levels (the root is level 1); 0 means unlimited.
	// Relation-store transducers can be deep as well as wide: the
	// register grows along a path, so the ancestor stop condition may
	// fire only after exponentially many levels. For OutputRelation it
	// caps the BFS level of the configuration walk (the root is level 1).
	MaxDepth int
	// Workers is accepted for compatibility and ignored: every run
	// expands serially. Callers wanting concurrency run several
	// transformations at once, as ptserve does.
	Workers int
	// Limits optionally carries the full run-control limit set (wall
	// clock, query and fixpoint-iteration budgets). The MaxNodes and
	// MaxDepth fields above override the corresponding Limits fields
	// when nonzero.
	Limits *runctl.Limits
	// Faults injects deterministic test-only failures (see
	// runctl.FaultPlan); nil in production.
	Faults *runctl.FaultPlan
	// Cache selects the memoization level (see CacheMode). The zero
	// value CacheOff evaluates each distinct rule query at every node.
	// Register relations in ξ may be shared between sibling items of a
	// rule and, with CacheQueries, between nodes (and, through a shared
	// Memo, between runs), so they must be treated as immutable. ξ
	// itself is always a tree.
	Cache CacheMode
	// CacheSize bounds the query memo in entries; 0 selects
	// eval.DefaultMemoSize.
	CacheSize int
	// Memo, when non-nil and Cache ≥ CacheQueries, is used as the
	// query-result memo instead of a fresh per-run table, so concurrent
	// or repeated runs over the SAME transducer and instance share warm
	// results (eval.Memo is concurrency-safe and failed evaluations are
	// never stored, so a faulted run cannot poison it). Sharing a memo
	// across different instances is unsound — its keys do not include
	// the database. Stats.Cache{Hits,Misses,Evictions} report the memo's
	// cumulative counters, which with a shared memo include other runs'
	// traffic.
	Memo *eval.Memo
	// NoPlan runs every rule query on the naive reference evaluator
	// (eval.EvalQueryNaive, via eval.Env WithoutPlanner) instead of its
	// compiled plan — the differential-debugging lever surfaced as
	// ptxml -plan=off. Results are identical either way.
	NoPlan bool
}

// baseEnv builds the run's root evaluation environment over inst,
// honoring NoPlan.
func (o Options) baseEnv(inst *relation.Instance, ctl *runctl.Controller) *eval.Env {
	env := eval.NewEnv(inst).WithControl(ctl)
	if o.NoPlan {
		env = env.WithoutPlanner()
	}
	return env
}

// limits merges the flat Options fields into the optional Limits set.
func (o Options) limits() runctl.Limits {
	var l runctl.Limits
	if o.Limits != nil {
		l = *o.Limits
	}
	if o.MaxNodes > 0 {
		l.MaxNodes = o.MaxNodes
	}
	if o.MaxDepth > 0 {
		l.MaxDepth = o.MaxDepth
	}
	return l
}

// Stats reports what a run did. Nodes, StopsApplied and MaxDepth
// describe ξ, so they are identical across cache modes; QueriesRun
// counts evaluations actually performed — at most one per distinct
// query of a rule per node — which is exactly what the query memo
// reduces.
type Stats struct {
	Nodes        int // nodes in the final ξ (before virtual splicing)
	QueriesRun   int // distinct rule queries evaluated, summed over steps
	StopsApplied int // times the ancestor stop condition fired
	MaxDepth     int // depth of ξ

	CacheMode      CacheMode // the run's cache mode
	CacheHits      int       // query-memo hits
	CacheMisses    int       // query-memo misses
	CacheEvictions int       // query-memo evictions
}

// Result bundles the raw register-carrying tree ξ and run statistics.
type Result struct {
	Xi    *xmltree.Tree // final tree with registers and states intact
	Stats Stats
}

// ErrBudget is returned when a resource budget (MaxNodes, MaxDepth, or
// one of the runctl.Limits budgets) is exceeded; the Kind field names
// which. It is an alias for runctl.ErrBudget so callers can match it
// from either package with errors.As.
type ErrBudget = runctl.ErrBudget

// Run executes the τ-transformation on inst and returns the final tree
// ξ with registers and states still attached, plus statistics. It is
// RunContext with a background context.
func (t *Transducer) Run(inst *relation.Instance, opts Options) (*Result, error) {
	return t.RunContext(context.Background(), inst, opts)
}

// RunContext executes the τ-transformation under ctx and the limits in
// opts. Cancellation (and the Limits.Timeout deadline) is observed
// between rule-query evaluations, inside quantifier expansion and
// inside IFP fixpoint loops; the run stops at the first failing step.
// Errors are runctl-typed: *runctl.ErrCanceled
// for cancellation/deadline, *runctl.ErrBudget for exhausted budgets,
// *runctl.ErrInternal for contained panics.
func (t *Transducer) RunContext(ctx context.Context, inst *relation.Instance, opts Options) (res *Result, err error) {
	defer runctl.Recover(&err, "pt.Run")
	if err := t.Validate(); err != nil {
		return nil, err
	}
	r := t.newRun(ctx, inst, opts)
	defer r.cancel()
	root, d := r.start()
	for !d.done() {
		if err := d.step(); err != nil {
			return nil, err
		}
	}
	return &Result{Xi: &xmltree.Tree{Root: root}, Stats: r.stats(d.tally)}, nil
}

// Output executes the transformation and returns the output Σ-tree τ(I):
// registers and states stripped, virtual tags spliced out.
func (t *Transducer) Output(inst *relation.Instance, opts Options) (*xmltree.Tree, error) {
	return t.OutputContext(context.Background(), inst, opts)
}

// OutputContext is Output under a context (see RunContext). It strips
// and splices the run's own ξ in place: ξ's nodes belong to this call,
// and Strip drops register pointers, never a shared register. To only
// serialize, splice at emission with Tree.WriteXMLVirtual on Result.Xi.
func (t *Transducer) OutputContext(ctx context.Context, inst *relation.Instance, opts Options) (*xmltree.Tree, error) {
	res, err := t.RunContext(ctx, inst, opts)
	if err != nil {
		return nil, err
	}
	return res.Xi.Strip().SpliceVirtual(t.Virtual), nil
}

// OutputRelation treats τ as a relational query (Section 6.1): it
// returns Rτ(I), the union of the registers of all nodes labeled label
// in the final ξ. label must not be virtual.
//
// It never builds ξ. As in the proof of Theorem 3(2), it walks the
// configuration graph instead: breadth first from (Start, RootTag, ∅),
// stepping each distinct (state, tag, register) configuration once
// through the run's Expander and uniting the registers of those tagged label.
// Every node of ξ carries a reachable configuration, and a shortest
// derivation of a reachable configuration repeats none, so the ancestor
// stop never cuts it off: ξ carries exactly the reachable
// configurations, and the graph can be exponentially smaller than the
// tree (Proposition 1(3)).
//
// Budgets count the walk, not the tree: MaxNodes charges each distinct
// configuration once, and MaxDepth bounds the BFS level, a
// configuration's shortest distance from the root. Both are at most the
// tree's figures, so a budget the tree run meets is met here too.
func (t *Transducer) OutputRelation(inst *relation.Instance, label string, opts Options) (*relation.Relation, error) {
	return t.OutputRelationContext(context.Background(), inst, label, opts)
}

// OutputRelationContext is OutputRelation under a context (see
// RunContext).
func (t *Transducer) OutputRelationContext(ctx context.Context, inst *relation.Instance, label string, opts Options) (out *relation.Relation, err error) {
	if t.Virtual[label] {
		return nil, fmt.Errorf("pt: output label %q is virtual", label)
	}
	a, ok := t.Arities[label]
	if !ok {
		return nil, fmt.Errorf("pt: output label %q has no declared arity", label)
	}
	defer runctl.Recover(&err, "pt.OutputRelation")
	if err := t.Validate(); err != nil {
		return nil, err
	}
	r := t.newRun(ctx, inst, opts)
	defer r.cancel()
	out = relation.New(a)
	level := []ChildSpec{{State: t.Start, Tag: t.RootTag, Reg: relation.New(0)}}
	seen := newConfigSet() // pushed, never popped
	seen.push(NewConfig(t.Start, t.RootTag, level[0].Reg))
	for depth := 1; len(level) > 0; depth++ {
		var next []ChildSpec
		for _, c := range level {
			if err := r.ctl.Canceled(); err != nil {
				return nil, err
			}
			if err := r.ctl.Depth(depth); err != nil {
				return nil, err
			}
			if c.Tag == label {
				out.UnionWith(c.Reg)
			}
			if c.Tag == xmltree.TextTag {
				continue
			}
			specs, _, err := r.x.Expand(c.State, c.Tag, c.Reg)
			if err != nil {
				return nil, err
			}
			// Charge once per expanding step, as the tree run does, so
			// a node fault fires at no more steps than there.
			if len(specs) == 0 {
				continue
			}
			fresh := 0
			for _, s := range specs {
				if k := NewConfig(s.State, s.Tag, s.Reg); !seen.contains(k) {
					seen.push(k)
					next = append(next, s)
					fresh++
				}
			}
			if err := r.ctl.AddNodes(fresh); err != nil {
				return nil, err
			}
		}
		level = next
	}
	return out, nil
}
