package pt

import (
	"context"
	"slices"

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
// The ancestor set of the stop condition is the CURRENT PATH: anc.path
// holds the configurations of the expanded nodes above the newest
// frontier entries, the one at index i at depth baseDepth+i+1. Stepping
// an entry at depth d first unwinds the path to depth d−1, so the path
// is then exactly that entry's ancestors. A depth-d chain or comb
// therefore costs O(1) per node, with no per-entry ancestor copies.
// Path membership is a hash probe confirmed by equality (configSet).
//
// Entries given to RestoreStepRun (seeds) carry their ancestors
// explicitly, because incremental repair restores entries from
// unrelated branches: stepping one drops the whole path and pushes its
// list in its place, with baseDepth set so that the list ends just
// above the seed. Seeds lie below the frontier, so a seed is stepped
// only once every entry pushed after it is done.
type driver struct {
	*run
	frontier  []entry
	seeds     []PendingConfig
	anc       configSet
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
	c := NewConfig(state, n.Tag, n.Reg)
	if d.anc.contains(c) {
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
	if len(specs) == 1 {
		// An only child and its Children backing array are one object.
		one := &struct {
			node xmltree.Node
			ptr  [1]*xmltree.Node
		}{node: xmltree.Node{Tag: specs[0].Tag, State: specs[0].State, Reg: specs[0].Reg}}
		one.ptr[0] = &one.node
		n.Children = one.ptr[:]
	} else {
		// One allocation for all the children, not one per child.
		slab := make([]xmltree.Node, len(specs))
		n.Children = make([]*xmltree.Node, len(specs))
		for i, s := range specs {
			slab[i] = xmltree.Node{Tag: s.Tag, State: s.State, Reg: s.Reg}
			n.Children[i] = &slab[i]
		}
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
func (d *driver) push(n *xmltree.Node, c Config, depth int) {
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
// path is done, so the path is replaced by the seed's ancestors.
func (d *driver) reseed() {
	s := d.seeds[len(d.seeds)-1]
	d.seeds = d.seeds[:len(d.seeds)-1]
	d.anc.reset()
	for _, a := range s.Ancestors {
		d.anc.push(a)
	}
	d.baseDepth = s.Depth - 1 - len(s.Ancestors)
	d.frontier = append(d.frontier, entry{s.Node, s.Depth})
}

// pending is the serializable frontier, bottom first: the seeds with
// their own ancestors, then the frontier entries, whose ancestors are
// the path above their depth. One copy of the path backs every frontier
// entry's list, each capped at its length.
func (d *driver) pending() []PendingConfig {
	path := slices.Clone(d.anc.path)
	out := append(make([]PendingConfig, 0, len(d.seeds)+len(d.frontier)), d.seeds...)
	for _, e := range d.frontier {
		k := e.depth - 1 - d.baseDepth
		out = append(out, PendingConfig{Node: e.node, Ancestors: path[:k:k], Depth: e.depth})
	}
	return out
}
