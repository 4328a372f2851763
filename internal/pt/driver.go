package pt

import (
	"context"
	"maps"
	"slices"
	"sort"
	"sync"

	"ptx/internal/eval"
	"ptx/internal/relation"
	"ptx/internal/runctl"
	"ptx/internal/xmltree"
)

// run is what every driver of one τ-run shares: the transducer, the
// evaluation environment and its controller, the caches and, for a
// parallel run, the worker semaphore.
type run struct {
	t      *Transducer
	base   *eval.Env
	ctl    *runctl.Controller
	cancel context.CancelFunc

	// mode is the effective cache mode; memo and subtrees are nil below
	// the corresponding mode.
	mode     CacheMode
	memo     *eval.Memo
	subtrees *subtreeCache
	sem      chan struct{}

	failOnce sync.Once
	firstErr error
}

// newRun sets up a run of t over inst under ctx and opts. A stepwise run
// is serial and caps the cache at CacheQueries: subtree sharing skips
// per-node work in a way that has no stable per-step numbering. Any
// other run degrades subtree sharing to the query cache when opts bounds
// the tree, because sharing skips per-node budget accounting. The
// caller must call cancel.
func (t *Transducer) newRun(ctx context.Context, inst *relation.Instance, opts Options, stepwise bool) *run {
	limits := opts.limits()
	ctx, cancel := limits.WithTimeout(ctx)
	ctl := runctl.New(ctx, limits).WithFaults(opts.Faults)
	r := &run{t: t, base: opts.baseEnv(inst, ctl), ctl: ctl, cancel: cancel, mode: opts.Cache}
	if stepwise && r.mode > CacheQueries || r.mode == CacheSubtrees && limits.BoundsTree() {
		r.mode = CacheQueries
	}
	if r.mode >= CacheQueries {
		r.memo = opts.Memo
		if r.memo == nil {
			r.memo = eval.NewMemo(opts.CacheSize)
		}
	}
	if r.mode == CacheSubtrees {
		r.subtrees = newSubtreeCache(opts.CacheSize)
	}
	if opts.Workers > 1 && !stepwise {
		r.sem = make(chan struct{}, opts.Workers)
	}
	return r
}

// fail records the first error of the run and cancels the run context
// so concurrent sub-drivers stop early. It returns err for convenience.
func (r *run) fail(err error) error {
	r.failOnce.Do(func() {
		r.firstErr = err
		r.cancel()
	})
	return err
}

// tally is a driver's share of the run's logical counters.
type tally struct {
	nodes, queries, stops, maxDepth, shared int
}

func (c *tally) add(o tally) {
	c.nodes += o.nodes
	c.queries += o.queries
	c.stops += o.stops
	c.maxDepth = max(c.maxDepth, o.maxDepth)
	c.shared += o.shared
}

// stats reports c together with the run's cache counters.
func (r *run) stats(c tally) Stats {
	s := Stats{
		Nodes:        c.nodes,
		QueriesRun:   c.queries,
		StopsApplied: c.stops,
		MaxDepth:     c.maxDepth,
		CacheMode:    r.mode,
		NodesShared:  c.shared,
	}
	if r.memo != nil {
		h, m, e := r.memo.Stats()
		s.CacheHits, s.CacheMisses, s.CacheEvictions = int(h), int(m), int(e)
	}
	if r.subtrees != nil {
		s.SubtreesShared = int(r.subtrees.hits.Load())
		s.CacheEvictions += int(r.subtrees.evictions.Load())
	}
	return s
}

// entry is one frontier entry: an unexpanded node and its depth (the
// root is depth 1).
type entry struct {
	node  *xmltree.Node
	depth int
}

// frame is one expanded node on the current path: its configuration
// key, the summary its children accumulate (subtree mode only) and the
// sub-drivers expanding some of its children concurrently.
type frame struct {
	key   string
	node  *xmltree.Node
	deps  *subdeps
	forks *forks
}

// forks are the sub-drivers a frame started; unwinding it joins them.
type forks struct {
	wg   sync.WaitGroup
	subs []*driver
}

// driver expands a run from an explicit LIFO frontier, one configuration
// per step, in document order. Every caller — RunContext, StepRun, and
// through StepRun incremental repair and supervision — expands through
// it.
//
// The ancestor set of the stop condition is the CURRENT PATH: path holds
// the expanded nodes from just below baseDepth down to the parent of the
// newest frontier entries, and anc holds baseAnc plus the path's keys.
// Stepping an entry at depth d first unwinds the path to depth d−1, so
// anc is then exactly that entry's proper ancestors. A depth-d chain or
// comb therefore costs O(1) per node, with no per-entry ancestor copies.
//
// Entries given to RestoreStepRun (seeds) carry their ancestors
// explicitly, because incremental repair restores entries from
// unrelated branches: stepping one unwinds the whole path and makes its
// list the new base. Seeds lie below the frontier, so a seed is stepped
// only once every entry pushed after it is done.
type driver struct {
	*run
	frontier  []entry
	seeds     []PendingConfig
	path      []frame
	anc       map[string]bool
	baseAnc   []string
	baseDepth int
	// top accumulates the summary of the subtrees rooted at baseDepth+1
	// (subtree mode only); a sub-driver's parent frame merges it.
	top     *subdeps
	observe func(StepEvent)
	err     error // a sub-driver's outcome, read after its join
	tally
}

func (r *run) driver(anc map[string]bool, baseDepth int) *driver {
	d := &driver{run: r, anc: anc, baseDepth: baseDepth}
	if r.subtrees != nil {
		d.top = &subdeps{}
	}
	return d
}

// start returns a driver for a fresh run: the root configuration at
// depth 1, counted as the first node.
func (r *run) start() (*xmltree.Node, *driver) {
	root := &xmltree.Node{Tag: r.t.RootTag, State: r.t.Start, Reg: relation.New(0)}
	d := r.driver(map[string]bool{}, 0)
	d.frontier = append(d.frontier, entry{root, 1})
	d.nodes = 1
	return root, d
}

func (d *driver) done() bool { return len(d.frontier) == 0 && len(d.seeds) == 0 }

// drain steps until the frontier is empty and finishes the whole path.
// On failure it records the run's first error (see fail) and joins every
// sub-driver it started; a panic below becomes a *runctl.ErrInternal
// like any other failure.
func (d *driver) drain() (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = runctl.InternalFrom("pt "+d.t.Name+": expand", p)
		}
		if err != nil {
			d.fail(err)
			for _, f := range d.path {
				if f.forks != nil {
					f.forks.wg.Wait()
				}
			}
		}
	}()
	for !d.done() {
		if err := d.step(); err != nil {
			return err
		}
	}
	return d.unwind(d.baseDepth)
}

// step performs one operation on the top frontier entry: it finalizes
// the node (text leaf, ancestor stop, shared subtree, empty or missing
// rule, all-empty forests) or evaluates its rule through ExpandConfig,
// attaches its children and pushes them. Steps are ATOMIC: a failed
// step — cancellation, budget, injected fault, query error — leaves the
// entry on the frontier and the tree untouched, so (tree, frontier)
// always describes exactly the remaining work.
func (d *driver) step() error {
	if len(d.frontier) == 0 {
		if err := d.reseed(); err != nil {
			return err
		}
	}
	e := d.frontier[len(d.frontier)-1]
	if err := d.ctl.Canceled(); err != nil {
		return err
	}
	if err := d.ctl.Depth(e.depth); err != nil {
		return err
	}
	if err := d.unwind(e.depth - 1); err != nil {
		return err
	}
	n, acc := e.node, d.acc()
	state := n.State
	if n.Tag == xmltree.TextTag {
		n.Text = xmltree.TextOfRegister(n.Reg)
		acc.addLeaf("")
		d.commit(e, state, false)
		return nil
	}
	// Stop condition (1): an ancestor repeats state, tag and register.
	key := ConfigKey(state, n.Tag, n.Reg)
	if d.anc[key] {
		d.stops++
		acc.addStop(key)
		d.commit(e, state, true)
		return nil
	}
	// Subtree sharing: reuse an earlier expansion of this configuration
	// whose stop-condition dependencies resolve identically under the
	// current path. Determinism (Proposition 1) makes its unfolding
	// exactly the subtree this step would build.
	if d.subtrees != nil {
		if s, ok := d.subtrees.lookup(key, d.anc); ok {
			n.Children = s.children
			d.nodes += s.size - 1
			d.shared += s.size - 1
			d.stops += s.stops
			d.maxDepth = max(d.maxDepth, e.depth+s.height-1)
			acc.addEntry(s)
			d.commit(e, state, false)
			return nil
		}
	}
	specs, queries, err := d.t.ExpandConfig(state, n.Tag, n.Reg, d.base, d.memo)
	if err != nil {
		return err
	}
	if len(specs) == 0 {
		d.queries += queries
		acc.addLeaf(key)
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
	d.push(n, key, e.depth)
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

// push puts n, just expanded at depth under configuration key, on the
// path and its children on the frontier, last child first so they are
// stepped in document order. In a parallel run a branching node hands
// each child that finds a free worker slot to a sub-driver instead.
func (d *driver) push(n *xmltree.Node, key string, depth int) {
	f := frame{key: key, node: n}
	if d.subtrees != nil {
		f.deps = &subdeps{}
	}
	d.anc[key] = true
	for i := len(n.Children) - 1; i >= 0; i-- {
		c := entry{n.Children[i], depth + 1}
		if d.sem != nil && len(n.Children) > 1 {
			select {
			case d.sem <- struct{}{}:
				d.fork(&f, c)
				continue
			default:
			}
		}
		d.frontier = append(d.frontier, c)
	}
	d.path = append(d.path, f)
}

// fork expands c on a new goroutine holding a worker slot. Its
// sub-driver starts from a clone of the current ancestor set; f, the
// frame of c's parent, joins it before finishing.
func (d *driver) fork(f *frame, c entry) {
	sub := d.driver(maps.Clone(d.anc), c.depth-1)
	sub.frontier = append(sub.frontier, c)
	if f.forks == nil {
		f.forks = &forks{}
	}
	fs := f.forks
	fs.subs = append(fs.subs, sub)
	fs.wg.Add(1)
	go func() {
		defer fs.wg.Done()
		defer func() { <-d.sem }()
		sub.err = sub.drain()
	}()
}

// unwind finishes every path frame deeper than depth, deepest first: it
// joins the frame's sub-drivers, caches its subtree when sharing is on,
// and folds its summary into its parent's.
func (d *driver) unwind(depth int) error {
	for len(d.path) > depth-d.baseDepth {
		f := d.path[len(d.path)-1]
		if f.forks != nil {
			f.forks.wg.Wait()
			for _, s := range f.forks.subs {
				if s.err != nil {
					return s.err
				}
				d.tally.add(s.tally)
				f.deps.merge(s.top)
			}
		}
		d.path = d.path[:len(d.path)-1]
		delete(d.anc, f.key)
		if f.deps == nil {
			continue
		}
		mine := f.deps.promote(f.key)
		if !mine.overflow {
			d.subtrees.insert(f.key, &subtreeEntry{
				children: f.node.Children,
				size:     mine.size,
				height:   mine.height,
				stops:    mine.stops,
				hits:     mine.hits,
				misses:   mine.misses,
			})
		}
		d.acc().merge(mine)
	}
	return nil
}

// acc is the summary accumulator of the entries just below the path.
func (d *driver) acc() *subdeps {
	if len(d.path) == 0 {
		return d.top
	}
	return d.path[len(d.path)-1].deps
}

// reseed moves the next seed onto the empty frontier. Every frame on
// the path is done, and the seed's explicit ancestors become the base
// below the new path.
func (d *driver) reseed() error {
	if err := d.unwind(d.baseDepth); err != nil {
		return err
	}
	s := d.seeds[len(d.seeds)-1]
	d.seeds = d.seeds[:len(d.seeds)-1]
	clear(d.anc)
	for _, k := range s.Ancestors {
		d.anc[k] = true
	}
	d.baseAnc, d.baseDepth = s.Ancestors, s.Depth-1
	d.frontier = append(d.frontier, entry{s.Node, s.Depth})
	return nil
}

// pending is the serializable frontier, bottom first: the seeds with
// their own ancestors, then the frontier entries, whose ancestors are
// the base plus the path above their depth.
func (d *driver) pending() []PendingConfig {
	out := make([]PendingConfig, 0, len(d.seeds)+len(d.frontier))
	for _, s := range d.seeds {
		keys := slices.Clone(s.Ancestors)
		sort.Strings(keys)
		out = append(out, PendingConfig{Node: s.Node, Ancestors: keys, Depth: s.Depth})
	}
	for _, e := range d.frontier {
		keys := append(make([]string, 0, len(d.baseAnc)+e.depth), d.baseAnc...)
		for _, f := range d.path[:e.depth-1-d.baseDepth] {
			keys = append(keys, f.key)
		}
		sort.Strings(keys)
		out = append(out, PendingConfig{Node: e.node, Ancestors: keys, Depth: e.depth})
	}
	return out
}
