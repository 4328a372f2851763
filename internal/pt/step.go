package pt

import (
	"context"
	"fmt"
	"sort"

	"ptx/internal/eval"
	"ptx/internal/relation"
	"ptx/internal/runctl"
	"ptx/internal/xmltree"
)

// StepRun is an explicit-frontier, one-configuration-per-step execution
// of the τ-transformation, built for checkpointing and resumption: the
// paper's determinism argument (Proposition 1(1)) makes the frontier of
// pending (state, tag, register) configurations a complete, restartable
// description of everything left to do, so a snapshot of (partial tree,
// frontier) taken between steps resumes to the exact tree an
// uninterrupted run would build.
//
// The step discipline is LIFO (document-order DFS), which both keeps
// ancestor sets shareable the way the recursive expander does and makes
// the operation numbering deterministic — "interrupt at the k-th step"
// names the same cut point on every run. Expansion is serial, and the
// cache mode is capped at CacheQueries: subtree sharing skips per-node
// work in a way that has no stable per-step numbering. Full-speed
// parallel/shared runs remain RunContext's job; StepRun trades their
// throughput for a restartable frontier. The OUTPUT is identical either
// way (the determinism invariant the cache-equivalence suite pins).
type StepRun struct {
	t      *Transducer
	base   *eval.Env
	ctl    *runctl.Controller
	cancel context.CancelFunc
	mode   CacheMode
	memo   *eval.Memo

	root     *xmltree.Node
	frontier []*stepPending
	observe  func(StepEvent)

	ops      int64
	queries  int
	stops    int
	nodes    int
	maxDepth int
}

// stepPending is one frontier entry: an unexpanded node, the set of its
// proper-ancestor configuration keys, and its depth. own reports that
// this entry is the map's sole referent and may extend it in place (the
// same copy-on-write discipline as the recursive expander).
type stepPending struct {
	node  *xmltree.Node
	anc   map[string]bool
	own   bool
	depth int
}

// PendingConfig is the serializable view of one frontier entry, exposed
// for checkpointing. Node points into the partial tree returned by
// Tree(); Ancestors holds the ancestor configuration keys sorted.
type PendingConfig struct {
	Node      *xmltree.Node
	Ancestors []string
	Depth     int
}

// NewStepRun starts a stepwise run of the τ-transformation on inst.
// Budgets and fault plans in opts apply exactly as in RunContext (the
// wall-clock deadline starts now); Options.Cache above CacheQueries is
// capped at CacheQueries. Callers must Close the run to release its
// timeout resources.
func (t *Transducer) NewStepRun(ctx context.Context, inst *relation.Instance, opts Options) (*StepRun, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	root := &xmltree.Node{Tag: t.RootTag, State: t.Start, Reg: relation.New(0)}
	pending := []PendingConfig{{Node: root, Depth: 1}}
	return t.restore(ctx, inst, opts, root, pending, Stats{Nodes: 1})
}

// RestoreStepRun reconstructs a stepwise run from a checkpoint: the
// partial tree rooted at root, the frontier as captured by Pending()
// (in the same order), and the counter values captured by StatsSoFar.
// Budgets in opts are FRESH for this attempt — a resumed run gets its
// full node/query/time budget again, which is what lets a sequence of
// budget-bounded attempts complete a tree no single budget allows.
// The pending nodes must belong to root's tree; the supervise layer's
// snapshot decoder enforces that for untrusted checkpoints.
func (t *Transducer) RestoreStepRun(ctx context.Context, inst *relation.Instance, opts Options, root *xmltree.Node, pending []PendingConfig, prior Stats) (*StepRun, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if root == nil {
		return nil, fmt.Errorf("pt: restore: nil root")
	}
	for i, p := range pending {
		switch {
		case p.Node == nil:
			return nil, fmt.Errorf("pt: restore: pending[%d] has nil node", i)
		case p.Node.State == "":
			return nil, fmt.Errorf("pt: restore: pending[%d] (%s) already finalized", i, p.Node.Tag)
		case p.Node.Reg == nil:
			return nil, fmt.Errorf("pt: restore: pending[%d] (%s,%s) has no register", i, p.Node.State, p.Node.Tag)
		case p.Depth < 1:
			return nil, fmt.Errorf("pt: restore: pending[%d] depth %d < 1", i, p.Depth)
		}
	}
	return t.restore(ctx, inst, opts, root, pending, prior)
}

func (t *Transducer) restore(ctx context.Context, inst *relation.Instance, opts Options, root *xmltree.Node, pending []PendingConfig, prior Stats) (*StepRun, error) {
	limits := opts.limits()
	ctx, cancel := limits.WithTimeout(ctx)
	ctl := runctl.New(ctx, limits).WithFaults(opts.Faults)
	mode := opts.Cache
	if mode > CacheQueries {
		mode = CacheQueries
	}
	s := &StepRun{
		t:        t,
		base:     opts.baseEnv(inst, ctl),
		ctl:      ctl,
		cancel:   cancel,
		mode:     mode,
		root:     root,
		queries:  prior.QueriesRun,
		stops:    prior.StopsApplied,
		nodes:    prior.Nodes,
		maxDepth: prior.MaxDepth,
	}
	if mode >= CacheQueries {
		if opts.Memo != nil {
			s.memo = opts.Memo
		} else {
			s.memo = eval.NewMemo(opts.CacheSize)
		}
	}
	s.frontier = make([]*stepPending, len(pending))
	for i, p := range pending {
		anc := make(map[string]bool, len(p.Ancestors))
		for _, k := range p.Ancestors {
			anc[k] = true
		}
		s.frontier[i] = &stepPending{node: p.Node, anc: anc, own: true, depth: p.Depth}
	}
	return s, nil
}

// Close releases the run's timeout resources. It is safe to call more
// than once and must be called even after a completed or failed run.
func (s *StepRun) Close() {
	if s.cancel != nil {
		s.cancel()
		s.cancel = nil
	}
}

// Done reports whether the frontier is empty (the transformation is
// complete and Result may be called).
func (s *StepRun) Done() bool { return len(s.frontier) == 0 }

// Ops returns the number of successfully completed steps of this runner
// (a resumed runner starts again at zero).
func (s *StepRun) Ops() int64 { return s.ops }

// Pending returns the serializable frontier, bottom of the stack first;
// feeding it back to RestoreStepRun in this order reproduces the step
// sequence exactly.
func (s *StepRun) Pending() []PendingConfig {
	out := make([]PendingConfig, len(s.frontier))
	for i, p := range s.frontier {
		keys := make([]string, 0, len(p.anc))
		for k := range p.anc {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out[i] = PendingConfig{Node: p.node, Ancestors: keys, Depth: p.depth}
	}
	return out
}

// Tree returns the partial (or, once Done, final) register-carrying
// tree ξ. Frontier nodes still carry their State.
func (s *StepRun) Tree() *xmltree.Tree { return &xmltree.Tree{Root: s.root} }

// StatsSoFar returns the counters accumulated so far (including any
// prior counters a restore carried in). Unlike Result it is valid
// mid-run, which is what checkpoints record.
func (s *StepRun) StatsSoFar() Stats {
	stats := Stats{
		Nodes:        s.nodes,
		QueriesRun:   s.queries,
		StopsApplied: s.stops,
		MaxDepth:     s.maxDepth,
		CacheMode:    s.mode,
	}
	if s.memo != nil {
		h, m, e := s.memo.Stats()
		stats.CacheHits = int(h)
		stats.CacheMisses = int(m)
		stats.CacheEvictions = int(e)
	}
	return stats
}

// Result returns the final tree and statistics; it errors if the
// frontier is not empty.
func (s *StepRun) Result() (*Result, error) {
	if !s.Done() {
		return nil, fmt.Errorf("pt: step run incomplete: %d configurations pending", len(s.frontier))
	}
	return &Result{Xi: s.Tree(), Stats: s.StatsSoFar()}, nil
}

// Run drives the frontier to empty and returns the result; it is
// RunContext built from steps (and produces the identical tree).
func (s *StepRun) Run() (*Result, error) {
	for !s.Done() {
		if _, err := s.Step(); err != nil {
			return nil, err
		}
	}
	return s.Result()
}

// StepEvent describes one COMMITTED step: the node it finalized or
// expanded, the state it carried before finalization cleared it, its
// depth, and whether the ancestor stop condition fired. Incremental
// repair (internal/incr) records these to know each live node's
// configuration after the run erased State from the tree.
type StepEvent struct {
	Node    *xmltree.Node
	State   string
	Depth   int
	Stopped bool
}

// Observe registers f to be called after every committed step; failed
// steps emit nothing, preserving the atomic-step invariant. f runs on
// the stepping goroutine and must not mutate the tree.
func (s *StepRun) Observe(f func(StepEvent)) { s.observe = f }

// Step performs one operation: it takes the top frontier configuration
// and either finalizes it (text leaf, ancestor stop, empty or missing
// rule, all-empty forests) or evaluates its rule queries and pushes its
// children. Steps are ATOMIC with respect to the run state: a failed
// step — cancellation, budget, injected fault, query error, contained
// panic — leaves the configuration on the frontier and the tree
// untouched, so (tree, frontier) always describes exactly the remaining
// work. This is the invariant checkpoints rely on. done reports whether
// the frontier is empty after the step; errors are runctl-typed as in
// RunContext.
func (s *StepRun) Step() (done bool, err error) {
	defer runctl.Recover(&err, "pt.Step")
	if len(s.frontier) == 0 {
		return true, nil
	}
	p := s.frontier[len(s.frontier)-1]
	if err := s.ctl.Canceled(); err != nil {
		return false, err
	}
	if err := s.ctl.Depth(p.depth); err != nil {
		return false, err
	}
	n := p.node
	state := n.State

	// finalize commits a completed step that produced no children.
	finalize := func(stopped bool) bool {
		n.State = ""
		s.frontier = s.frontier[:len(s.frontier)-1]
		s.ops++
		if p.depth > s.maxDepth {
			s.maxDepth = p.depth
		}
		if s.observe != nil {
			s.observe(StepEvent{Node: n, State: state, Depth: p.depth, Stopped: stopped})
		}
		return len(s.frontier) == 0
	}

	if n.Tag == xmltree.TextTag {
		n.Text = xmltree.TextOfRegister(n.Reg)
		return finalize(false), nil
	}
	key := ancKey(n.State, n.Tag, n.Reg)
	if p.anc[key] {
		s.stops++
		return finalize(true), nil
	}
	specs, queriesRun, err := s.t.ExpandConfig(n.State, n.Tag, n.Reg, s.base, s.memo)
	if err != nil {
		return false, err
	}
	if len(specs) == 0 {
		s.queries += queriesRun
		return finalize(false), nil
	}
	if err := s.ctl.AddNodes(len(specs)); err != nil {
		return false, err
	}

	// The step commits: materialize the children and replace this
	// configuration with theirs.
	children := make([]*xmltree.Node, len(specs))
	for i, sp := range specs {
		children[i] = &xmltree.Node{Tag: sp.Tag, State: sp.State, Reg: sp.Reg}
	}
	n.Children = children
	n.State = ""
	s.nodes += len(children)
	s.queries += queriesRun
	s.frontier = s.frontier[:len(s.frontier)-1]
	s.ops++
	if p.depth > s.maxDepth {
		s.maxDepth = p.depth
	}
	if s.observe != nil {
		s.observe(StepEvent{Node: n, State: state, Depth: p.depth})
	}

	if len(children) == 1 {
		// Single-child chain: extend the ancestor set in place when owned
		// (the depth-d chains of Proposition 1(4) then cost O(d) total
		// instead of O(d²) map copying).
		anc := p.anc
		if !p.own {
			anc = make(map[string]bool, len(p.anc)+1)
			for k := range p.anc {
				anc[k] = true
			}
		}
		anc[key] = true
		s.frontier = append(s.frontier, &stepPending{node: children[0], anc: anc, own: true, depth: p.depth + 1})
		return false, nil
	}
	childAnc := make(map[string]bool, len(p.anc)+1)
	for k := range p.anc {
		childAnc[k] = true
	}
	childAnc[key] = true
	for i := len(children) - 1; i >= 0; i-- {
		s.frontier = append(s.frontier, &stepPending{node: children[i], anc: childAnc, own: false, depth: p.depth + 1})
	}
	return false, nil
}
