package pt

import (
	"context"
	"slices"
	"sort"

	"ptx/internal/eval"
	"ptx/internal/relation"
	"ptx/internal/runctl"
	"ptx/internal/xmltree"
)

// run is what every driver of one τ-run shares: the transducer, the
// evaluation environment and its controller, the query memo, and the
// expander every step of the run evaluates rules through.
type run struct {
	t      *Transducer
	base   *eval.Env
	ctl    *runctl.Controller
	cancel context.CancelFunc

	// mode is the run's cache mode; memo is nil below CacheQueries.
	mode CacheMode
	memo *eval.Memo
	x    Expander
}

// newRun sets up a run of t over inst under ctx and opts. The caller
// must call cancel.
func (t *Transducer) newRun(ctx context.Context, inst *relation.Instance, opts Options) *run {
	limits := opts.limits()
	ctx, cancel := limits.WithTimeout(ctx)
	ctl := runctl.New(ctx, limits).WithFaults(opts.Faults)
	r := &run{t: t, base: opts.baseEnv(inst, ctl), ctl: ctl, cancel: cancel, mode: opts.Cache}
	if r.mode >= CacheQueries {
		r.memo = opts.Memo
		if r.memo == nil {
			r.memo = eval.NewMemo(opts.CacheSize)
		}
	}
	r.x = Expander{t: t, base: r.base, memo: r.memo}
	return r
}

// tally is the run's logical counters.
type tally struct {
	nodes, queries, stops, maxDepth int
}

// stats reports c together with the run's cache counters.
func (r *run) stats(c tally) Stats {
	s := Stats{
		Nodes:        c.nodes,
		QueriesRun:   c.queries,
		StopsApplied: c.stops,
		MaxDepth:     c.maxDepth,
		CacheMode:    r.mode,
	}
	if r.memo != nil {
		h, m, e := r.memo.Stats()
		s.CacheHits, s.CacheMisses, s.CacheEvictions = int(h), int(m), int(e)
	}
	return s
}

// entry is one frontier entry: an unexpanded node and its depth (the
// root is depth 1).
type entry struct {
	node  *xmltree.Node
	depth int
}

// driver expands a run from an explicit LIFO frontier, one configuration
// per step, in document order. Every caller — RunContext, StepRun, and
// through StepRun incremental repair and supervision — expands through
// it.
//
// The ancestor set of the stop condition is the CURRENT PATH plus a
// base: anc.path holds the configurations of the expanded nodes from
// just below baseDepth down to the parent of the newest frontier
// entries. Stepping an entry at depth d first unwinds the path to
// depth d−1, so base and path are then exactly that entry's proper
// ancestors. A depth-d chain or comb therefore costs O(1) per node,
// with no per-entry ancestor copies. Path membership is a hash probe
// confirmed by equality (configSet); no configuration key is built.
//
// Entries given to RestoreStepRun (seeds) carry their ancestors
// explicitly, as ConfigKey strings, because incremental repair restores
// entries from unrelated branches: stepping one unwinds the whole path
// and makes its list the new base. Only a non-empty base costs a
// ConfigKey per step. Seeds lie below the frontier, so a seed is
// stepped only once every entry pushed after it is done.
type driver struct {
	*run
	frontier  []entry
	seeds     []PendingConfig
	anc       configSet
	baseAnc   []string
	baseKeys  map[string]bool // baseAnc as a set; empty when baseAnc is
	baseDepth int
	observe   func(StepEvent)
	tally
}

// start returns a driver for a fresh run: the root configuration at
// depth 1, counted as the first node.
func (r *run) start() (*xmltree.Node, *driver) {
	root := &xmltree.Node{Tag: r.t.RootTag, State: r.t.Start, Reg: relation.New(0)}
	d := &driver{run: r, anc: newConfigSet()}
	d.frontier = append(d.frontier, entry{root, 1})
	d.nodes = 1
	return root, d
}

func (d *driver) done() bool { return len(d.frontier) == 0 && len(d.seeds) == 0 }

// step performs one operation on the top frontier entry: it finalizes
// the node (text leaf, ancestor stop, empty or missing rule, all-empty
// forests) or evaluates its rule through the run's Expander, attaches
// its children and pushes them. Steps are ATOMIC: a failed step —
// cancellation, budget, injected fault, query error — leaves the entry
// on the frontier and the tree untouched, so (tree, frontier) always
// describes exactly the remaining work.
func (d *driver) step() error {
	if len(d.frontier) == 0 {
		d.reseed()
	}
	e := d.frontier[len(d.frontier)-1]
	if err := d.ctl.Canceled(); err != nil {
		return err
	}
	if err := d.ctl.Depth(e.depth); err != nil {
		return err
	}
	d.unwind(e.depth - 1)
	n := e.node
	state := n.State
	if n.Tag == xmltree.TextTag {
		n.Text = xmltree.TextOfRegister(n.Reg)
		d.commit(e, state, false)
		return nil
	}
	// Stop condition (1): an ancestor repeats state, tag and register.
	c := newConfig(state, n.Tag, n.Reg)
	if d.anc.contains(c) || len(d.baseKeys) > 0 && d.baseKeys[ConfigKey(state, n.Tag, n.Reg)] {
		d.stops++
		d.commit(e, state, true)
		return nil
	}
	specs, queries, err := d.x.Expand(state, n.Tag, n.Reg)
	if err != nil {
		return err
	}
	if len(specs) == 0 {
		d.queries += queries
		d.commit(e, state, false)
		return nil
	}
	if err := d.ctl.AddNodes(len(specs)); err != nil {
		return err
	}
	d.queries += queries
	d.nodes += len(specs)
	// One allocation for all the children, not one per child.
	slab := make([]xmltree.Node, len(specs))
	n.Children = make([]*xmltree.Node, len(specs))
	for i, s := range specs {
		slab[i] = xmltree.Node{Tag: s.Tag, State: s.State, Reg: s.Reg}
		n.Children[i] = &slab[i]
	}
	d.commit(e, state, false)
	d.push(n, c, e.depth)
	return nil
}

// commit completes the step on entry e: it finalizes the node, pops the
// entry and reports the step.
func (d *driver) commit(e entry, state string, stopped bool) {
	e.node.State = ""
	d.frontier = d.frontier[:len(d.frontier)-1]
	d.maxDepth = max(d.maxDepth, e.depth)
	if d.observe != nil {
		d.observe(StepEvent{Node: e.node, State: state, Depth: e.depth, Stopped: stopped})
	}
}

// push puts n, just expanded at depth in configuration c, on the path
// and its children on the frontier, last child first so they are
// stepped in document order.
func (d *driver) push(n *xmltree.Node, c config, depth int) {
	d.anc.push(c)
	for i := len(n.Children) - 1; i >= 0; i-- {
		d.frontier = append(d.frontier, entry{n.Children[i], depth + 1})
	}
}

// unwind pops every path configuration deeper than depth.
func (d *driver) unwind(depth int) {
	for len(d.anc.path) > depth-d.baseDepth {
		d.anc.pop()
	}
}

// reseed moves the next seed onto the empty frontier. Every node on the
// path is done, so the path is dropped, and the seed's explicit
// ancestors become the base below the new path.
func (d *driver) reseed() {
	s := d.seeds[len(d.seeds)-1]
	d.seeds = d.seeds[:len(d.seeds)-1]
	d.anc.reset()
	clear(d.baseKeys)
	if len(s.Ancestors) > 0 && d.baseKeys == nil {
		d.baseKeys = make(map[string]bool, len(s.Ancestors))
	}
	for _, k := range s.Ancestors {
		d.baseKeys[k] = true
	}
	d.baseAnc, d.baseDepth = s.Ancestors, s.Depth-1
	d.frontier = append(d.frontier, entry{s.Node, s.Depth})
}

// pending is the serializable frontier, bottom first: the seeds with
// their own ancestors, then the frontier entries, whose ancestors are
// the base plus the path above their depth. Each path configuration's
// ConfigKey is built once per call.
func (d *driver) pending() []PendingConfig {
	path := make([]string, len(d.anc.path))
	for i, c := range d.anc.path {
		path[i] = ConfigKey(c.state, c.tag, c.reg)
	}
	out := make([]PendingConfig, 0, len(d.seeds)+len(d.frontier))
	for _, s := range d.seeds {
		keys := slices.Clone(s.Ancestors)
		sort.Strings(keys)
		out = append(out, PendingConfig{Node: s.Node, Ancestors: keys, Depth: s.Depth})
	}
	for _, e := range d.frontier {
		keys := append(make([]string, 0, len(d.baseAnc)+e.depth), d.baseAnc...)
		keys = append(keys, path[:e.depth-1-d.baseDepth]...)
		sort.Strings(keys)
		out = append(out, PendingConfig{Node: e.node, Ancestors: keys, Depth: e.depth})
	}
	return out
}
