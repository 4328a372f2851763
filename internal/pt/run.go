package pt

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

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
	// a guard.
	MaxNodes int
	// MaxDepth aborts the transformation once the tree grows deeper than
	// this many levels (the root is level 1); 0 means unlimited.
	// Relation-store transducers can be deep as well as wide: the
	// register grows along a path, so the ancestor stop condition may
	// fire only after exponentially many levels.
	MaxDepth int
	// Workers > 1 expands independent subtrees concurrently. The output
	// is identical to the sequential run: each subtree is uniquely
	// determined by its root's (state, tag, register) and the database
	// (the paper's determinism argument), and children are ordered
	// before recursion.
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
	// value CacheOff preserves the historical behavior exactly. With
	// CacheQueries and above, register relations in ξ may be shared
	// between nodes and must be treated as immutable; with
	// CacheSubtrees, ξ itself may be a DAG (shared subtrees) — Output
	// preserves the sharing (and the streaming writers serialize the
	// unfolding without materializing it), but callers walking
	// Result.Xi directly should expect shared nodes. The run's
	// Stats.CacheMode reports the EFFECTIVE mode after the automatic
	// subtree→query downgrade (node/depth budgets).
	Cache CacheMode
	// CacheSize bounds each cache level in entries; 0 selects
	// DefaultCacheSize.
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

// Stats reports what a run did. Nodes, StopsApplied and MaxDepth always
// describe the LOGICAL tree (the unfolding of ξ), so they are identical
// across cache modes; QueriesRun counts evaluations actually performed,
// which is exactly what the caches reduce.
type Stats struct {
	Nodes        int // logical nodes in the final ξ (before virtual splicing)
	QueriesRun   int // rule queries evaluated
	StopsApplied int // times the ancestor stop condition fired (logical)
	MaxDepth     int // depth of ξ

	CacheMode      CacheMode // effective mode (subtree may downgrade to query)
	CacheHits      int       // query-memo hits
	CacheMisses    int       // query-memo misses
	CacheEvictions int       // evictions across both cache levels
	SubtreesShared int       // whole expanded subtrees reused by reference
	NodesShared    int       // logical nodes covered by those reuses (roots excluded)
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

type runner struct {
	t    *Transducer
	base *eval.Env
	opts Options
	ctl  *runctl.Controller

	// cancel tears down the run-scoped context; fail invokes it so that
	// sibling subtrees abandon work as soon as any branch errors.
	cancel   context.CancelFunc
	failOnce sync.Once
	firstErr error

	queries atomic.Int64
	stops   atomic.Int64
	sem     chan struct{}

	// mode is the effective cache mode after the subtree→query
	// downgrade; memo and subtrees are nil below the corresponding mode.
	mode        CacheMode
	memo        *eval.Memo
	subtrees    *subtreeCache
	nodesShared atomic.Int64
}

// fail records the first error of the run and cancels the run context
// so concurrent siblings stop early. It returns err for convenience.
func (r *runner) fail(err error) error {
	r.failOnce.Do(func() {
		r.firstErr = err
		r.cancel()
	})
	return err
}

// cause returns the error that actually stopped the run: the first
// recorded failure if any, else the error bubbled up by expansion.
// Derived cancellations in sibling branches never mask the root cause.
func (r *runner) cause(err error) error {
	if r.firstErr != nil {
		return r.firstErr
	}
	return err
}

// ancKey identifies a (state, tag, register) configuration, used both
// for the ancestor stop condition and as the cache key for subtree
// sharing. The register component is relation.Key: canonical and
// order-insensitive (registers are sets), so two nodes that reach the
// same set of tuples by different evaluation orders share one
// configuration. Sibling ORDER is unaffected — it is fixed by the
// domain order on group prefixes at grouping time (see groupByPrefix),
// before configurations are ever compared.
func ancKey(state, tag string, reg *relation.Relation) string {
	return state + "\x00" + tag + "\x00" + reg.Key()
}

// ConfigKey is the exported form of the configuration key: by
// determinism (Proposition 1(1)) it completely identifies the subtree a
// configuration generates over a fixed database, which is what lets
// incremental repair (internal/incr) reuse an old subtree whenever the
// key survives a delta unchanged.
func ConfigKey(state, tag string, reg *relation.Relation) string {
	return ancKey(state, tag, reg)
}

// Run executes the τ-transformation on inst and returns the final tree
// ξ with registers and states still attached, plus statistics. It is
// RunContext with a background context.
func (t *Transducer) Run(inst *relation.Instance, opts Options) (*Result, error) {
	return t.RunContext(context.Background(), inst, opts)
}

// RunContext executes the τ-transformation under ctx and the limits in
// opts. Cancellation (and the Limits.Timeout deadline) is observed
// between rule-query evaluations, inside quantifier expansion and
// inside IFP fixpoint loops; on any failure all in-flight sibling
// expansions are abandoned. Errors are runctl-typed: *runctl.ErrCanceled
// for cancellation/deadline, *runctl.ErrBudget for exhausted budgets,
// *runctl.ErrInternal for contained panics.
func (t *Transducer) RunContext(ctx context.Context, inst *relation.Instance, opts Options) (res *Result, err error) {
	defer runctl.Recover(&err, "pt.Run")
	if err := t.Validate(); err != nil {
		return nil, err
	}
	limits := opts.limits()
	ctx, cancelT := limits.WithTimeout(ctx)
	defer cancelT()
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	ctl := runctl.New(runCtx, limits).WithFaults(opts.Faults)
	mode := opts.Cache
	if mode == CacheSubtrees && limits.BoundsTree() {
		// Subtree sharing skips per-node budget accounting; degrade to
		// the work-level cache so budgets stay exact. Virtual tags no
		// longer force a downgrade: the output path splices them at
		// emission (WriteXMLVirtual/Publish) instead of mutating ξ.
		mode = CacheQueries
	}
	r := &runner{
		t:      t,
		base:   opts.baseEnv(inst, ctl),
		opts:   opts,
		ctl:    ctl,
		cancel: cancel,
		mode:   mode,
	}
	if mode >= CacheQueries {
		if opts.Memo != nil {
			r.memo = opts.Memo
		} else {
			r.memo = eval.NewMemo(opts.CacheSize)
		}
	}
	if mode == CacheSubtrees {
		r.subtrees = newSubtreeCache(opts.CacheSize)
	}
	if opts.Workers > 1 {
		r.sem = make(chan struct{}, opts.Workers)
	}
	root := &xmltree.Node{Tag: t.RootTag, State: t.Start, Reg: relation.New(0)}
	ancestors := map[string]bool{}
	var rootDeps *subdeps
	if mode == CacheSubtrees {
		rootDeps = &subdeps{}
	}
	if err := r.expand(root, ancestors, true, 1, rootDeps); err != nil {
		return nil, r.cause(err)
	}
	tree := &xmltree.Tree{Root: root}
	stats := Stats{
		QueriesRun:   int(r.queries.Load()),
		StopsApplied: int(r.stops.Load()),
		CacheMode:    mode,
	}
	if mode == CacheSubtrees {
		// ξ may be a DAG whose unfolding is exponentially larger than its
		// physical size; the expansion summarized the logical tree as it
		// went, so walking it here is both wrong and unaffordable.
		stats.Nodes = rootDeps.size
		stats.MaxDepth = rootDeps.height
	} else {
		stats.Nodes = tree.Size()
		stats.MaxDepth = tree.Depth()
	}
	if r.memo != nil {
		h, m, e := r.memo.Stats()
		stats.CacheHits = int(h)
		stats.CacheMisses = int(m)
		stats.CacheEvictions = int(e)
	}
	if r.subtrees != nil {
		stats.SubtreesShared = int(r.subtrees.hits.Load())
		stats.NodesShared = int(r.nodesShared.Load())
		stats.CacheEvictions += int(r.subtrees.evictions.Load())
	}
	return &Result{Xi: tree, Stats: stats}, nil
}

// Output executes the transformation and returns the output Σ-tree τ(I):
// registers and states stripped, virtual tags spliced out.
func (t *Transducer) Output(inst *relation.Instance, opts Options) (*xmltree.Tree, error) {
	return t.OutputContext(context.Background(), inst, opts)
}

// OutputContext is Output under a context (see RunContext). The result
// preserves any subtree sharing in ξ: publishing a DAG costs its
// physical size, and the streaming writers serialize its unfolding
// without materializing it. Use Tree.WriteXMLVirtual/WriteCanonicalVirtual
// on Result.Xi directly to skip even the publish copy.
func (t *Transducer) OutputContext(ctx context.Context, inst *relation.Instance, opts Options) (*xmltree.Tree, error) {
	res, err := t.RunContext(ctx, inst, opts)
	if err != nil {
		return nil, err
	}
	return res.Xi.Publish(t.Virtual), nil
}

// OutputRelation treats τ as a relational query (Section 6.1): it runs
// the transformation and returns the union of the registers of all
// nodes labeled label in the final ξ. label must not be virtual.
func (t *Transducer) OutputRelation(inst *relation.Instance, label string, opts Options) (*relation.Relation, error) {
	return t.OutputRelationContext(context.Background(), inst, label, opts)
}

// OutputRelationContext is OutputRelation under a context (see
// RunContext).
func (t *Transducer) OutputRelationContext(ctx context.Context, inst *relation.Instance, label string, opts Options) (*relation.Relation, error) {
	if t.Virtual[label] {
		return nil, fmt.Errorf("pt: output label %q is virtual", label)
	}
	a, ok := t.Arities[label]
	if !ok {
		return nil, fmt.Errorf("pt: output label %q has no declared arity", label)
	}
	res, err := t.RunContext(ctx, inst, opts)
	if err != nil {
		return nil, err
	}
	out := relation.New(a)
	// Register union is idempotent, so each physically shared node needs
	// visiting once: WalkShared keeps this linear in the size of the ξ
	// DAG where Walk would traverse its (possibly exponential) unfolding.
	res.Xi.WalkShared(func(n *xmltree.Node) bool {
		if n.Tag == label && n.Reg != nil {
			out.UnionWith(n.Reg)
		}
		return true
	})
	return out, nil
}

// expand realizes the step relation ⇒ repeatedly below node n, whose
// (State, Tag, Reg) describe its current (q, a) labeling and register.
// ancestors maps ancKey → true for every proper ancestor configuration
// on the path from the root (the stop condition of Section 3). own
// reports whether this call is the sole referent of the ancestors map
// and may therefore extend it in place; when false the map may be
// shared with siblings (or a concurrent worker) and is copied before
// the first extension.
//
// Single-child steps — the shape of the exponentially deep chains that
// Proposition 1(4) licenses — are a LOOP, not a recursion: the node is
// finalized, its configuration is pushed on a spine of pending
// cache-insertions, and expansion descends in place. Combined with the
// in-place ancestor extension this makes a depth-d chain cost O(d)
// total (the recursive formulation paid O(d) stack frames and O(d²)
// ancestor-map copying). Branching nodes still recurse per child, so
// the Go stack depth is bounded by the number of BRANCHING ancestors,
// not by tree depth.
//
// dp, non-nil exactly in CacheSubtrees mode, is the caller's dependency
// accumulator: this call merges into it the summary (logical size,
// height, stop count, outer ancestor-set dependencies) of the subtree
// rooted at n. See subdeps for the validity argument.
//
// Every error path goes through r.fail so that concurrent siblings see
// the run context canceled and abandon their subtrees; nothing is ever
// inserted into a cache on an error path (the pending spine is dropped
// on error for the same reason).
func (r *runner) expand(n *xmltree.Node, ancestors map[string]bool, own bool, depth int, dp *subdeps) error {
	// spine records single-child ancestors of the current node whose
	// finish (subtree-cache insertion + summary promotion) is pending
	// until their chain bottoms out; unwound deepest-first so each
	// node's summary reaches its parent's accumulator.
	type pendingFinish struct {
		n   *xmltree.Node
		key string
		cd  *subdeps
		dp  *subdeps
	}
	var spine []pendingFinish
	unwind := func() error {
		for i := len(spine) - 1; i >= 0; i-- {
			p := spine[i]
			if err := r.finish(p.n, p.key, p.cd, p.dp); err != nil {
				return err
			}
		}
		return nil
	}

	for {
		if err := r.ctl.Canceled(); err != nil {
			return r.fail(err)
		}
		if err := r.ctl.Depth(depth); err != nil {
			return r.fail(err)
		}

		// Text nodes finalize immediately, carrying the string rendering
		// of their register.
		if n.Tag == xmltree.TextTag {
			n.Text = xmltree.TextOfRegister(n.Reg)
			n.State = ""
			dp.addLeaf("")
			return unwind()
		}

		// Stop condition (1): an ancestor repeats state, tag and register.
		key := ancKey(n.State, n.Tag, n.Reg)
		if ancestors[key] {
			r.stops.Add(1)
			n.State = ""
			dp.addStop(key)
			return unwind()
		}

		// Subtree sharing: if this configuration was fully expanded
		// before and its recorded stop-condition dependencies resolve
		// identically under the current ancestor set, reuse the
		// expansion by reference. Determinism (Proposition 1) guarantees
		// the unfolding is exactly the tree this call would have built.
		if r.subtrees != nil {
			if e, ok := r.subtrees.lookup(key, ancestors); ok {
				n.Children = e.children
				n.State = ""
				r.stops.Add(int64(e.stops))
				r.nodesShared.Add(int64(e.size - 1))
				dp.addEntry(e)
				return unwind()
			}
		}

		specs, queries, err := r.t.ExpandConfig(n.State, n.Tag, n.Reg, r.base, r.memo)
		r.queries.Add(int64(queries))
		if err != nil {
			return r.fail(err)
		}
		if len(specs) == 0 {
			// Missing or empty rule, or all forests empty: finalize.
			n.State = ""
			dp.addLeaf(key)
			return unwind()
		}
		if err := r.ctl.AddNodes(len(specs)); err != nil {
			return r.fail(err)
		}

		n.Children = make([]*xmltree.Node, len(specs))
		for i, s := range specs {
			n.Children[i] = &xmltree.Node{Tag: s.Tag, State: s.State, Reg: s.Reg}
		}
		n.State = ""

		// cd accumulates the children's subtree summaries; promoted to
		// this node's own summary after a fully successful expansion.
		var cd *subdeps
		if dp != nil {
			cd = &subdeps{}
		}

		if len(n.Children) == 1 {
			// Tail step: extend the ancestor set (in place when owned —
			// nothing else will read this map once the chain is done)
			// and descend without growing the Go stack.
			if !own {
				m := make(map[string]bool, len(ancestors)+1)
				for k := range ancestors {
					m[k] = true
				}
				ancestors = m
				own = true
			}
			ancestors[key] = true
			spine = append(spine, pendingFinish{n: n, key: key, cd: cd, dp: dp})
			n = n.Children[0]
			dp = cd
			depth++
			continue
		}

		// Branching step: one extended copy of the ancestor set, shared
		// read-only by all children (each child copies again on its own
		// first extension — copy-on-write keeps sibling subtrees
		// independent, which the parallel path relies on).
		childAnc := make(map[string]bool, len(ancestors)+1)
		for k := range ancestors {
			childAnc[k] = true
		}
		childAnc[key] = true

		if r.sem == nil {
			for _, c := range n.Children {
				if err := r.expand(c, childAnc, false, depth+1, cd); err != nil {
					return err
				}
			}
			if err := r.finish(n, key, cd, dp); err != nil {
				return err
			}
			return unwind()
		}

		// Parallel expansion of independent subtrees. Each worker
		// contains its own panics (a panic in a bare goroutine would
		// kill the whole process) and the first failing child cancels
		// the run context, so its siblings stop at their next checkpoint
		// instead of expanding to completion. Each child records
		// dependencies into its own accumulator; they are merged after
		// the barrier.
		errs := make([]error, len(n.Children))
		var deps []*subdeps
		if cd != nil {
			deps = make([]*subdeps, len(n.Children))
			for i := range deps {
				deps[i] = &subdeps{}
			}
		}
		childDeps := func(i int) *subdeps {
			if deps == nil {
				return nil
			}
			return deps[i]
		}
		var wg sync.WaitGroup
		for i, c := range n.Children {
			select {
			case r.sem <- struct{}{}:
				wg.Add(1)
				go func(i int, c *xmltree.Node) {
					defer wg.Done()
					defer func() { <-r.sem }()
					errs[i] = r.safeExpand(c, childAnc, depth+1, childDeps(i))
				}(i, c)
			default:
				errs[i] = r.safeExpand(c, childAnc, depth+1, childDeps(i))
			}
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		for _, d := range deps {
			cd.merge(d)
		}
		if err := r.finish(n, key, cd, dp); err != nil {
			return err
		}
		return unwind()
	}
}

// finish completes a successful interior expansion of n (configuration
// key, accumulated child summaries cd): it caches the expanded subtree
// when eligible and folds n's summary into the caller's accumulator dp.
func (r *runner) finish(n *xmltree.Node, key string, cd, dp *subdeps) error {
	if dp == nil {
		return nil
	}
	mine := cd.promote(key)
	if r.subtrees != nil && !mine.overflow {
		r.subtrees.insert(key, &subtreeEntry{
			children: n.Children,
			size:     mine.size,
			height:   mine.height,
			stops:    mine.stops,
			hits:     mine.hits,
			misses:   mine.misses,
		})
	}
	dp.merge(mine)
	return nil
}

// safeExpand is expand with panic containment: a panic anywhere below
// becomes a *runctl.ErrInternal and cancels the run like any other
// failure.
func (r *runner) safeExpand(n *xmltree.Node, ancestors map[string]bool, depth int, dp *subdeps) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = r.fail(runctl.InternalFrom(
				fmt.Sprintf("pt %s: expand (%s,%s)", r.t.Name, n.State, n.Tag), p))
		}
	}()
	return r.expand(n, ancestors, false, depth, dp)
}
