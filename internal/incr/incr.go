// Package incr maintains live published views under database deltas:
// instead of re-running the transducer from scratch after every
// mutation, a View repairs exactly the damaged part of its tree.
//
// The soundness argument is the paper's determinism result
// (Proposition 1(1)): over a fixed database, a configuration
// (state, tag, register) completely determines the subtree it
// generates. A delta leaves a node's subtree untouchable only through
// its rule queries, so a rule whose queries never mention a mutated
// relation produces the same children as before (its register and the
// untouched relations are its only inputs) — unless a query reads the
// active domain (logic.Query.ReadsDomain), which any write can move;
// such a rule is dirty under every effective delta. A child whose
// configuration survives a dirty parent's re-expansion unchanged
// roots a subtree identical to what a full rebuild would generate —
// every ancestor configuration on its path is also unchanged, so the
// ancestor stop condition resolves identically too. Repair therefore:
//
//  1. takes from the transducer's seal (pt.Transducer.Readers) the
//     DIRTY RULES — (state, tag) pairs whose item queries read a
//     relation the effective delta touched, or the domain — and those
//     queries;
//  2. walks the tree top-down, re-expanding only nodes governed by
//     dirty rules, matching the new child specs against the old
//     children by configuration (state, tag, register hash, confirmed
//     by equality) to reuse surviving subtrees;
//  3. expands genuinely new children on the frontier of the same run,
//     with the view's memo, which still holds every result whose query
//     the delta could not have changed (eval.Memo.InvalidateQueries).
//
// Repair is sound whatever share of the tree a delta dirties, so it is
// the only way a view follows a delta. The walk and the fresh expansion
// are one pt run under the view's options, whose budgets, fault plan
// and NoPlan bound it as they bound a run. A full rebuild builds the
// view and heals one whose repair failed.
package incr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"ptx/internal/eval"
	"ptx/internal/pt"
	"ptx/internal/relation"
	"ptx/internal/value"
	"ptx/internal/xmltree"
)

// historyCap bounds the change-report ring buffer a View keeps for
// watchers; maxReportPaths bounds the damage paths in one report.
const (
	historyCap     = 64
	maxReportPaths = 32
)

// ErrBroken is returned by Snapshot when a failed repair (and failed
// rebuild) left the view unusable; the next successful Apply or
// Reconcile heals it.
var ErrBroken = errors.New("incr: view broken by a failed repair; next Apply rebuilds")

// Options configures a View.
type Options struct {
	// Run supplies the budgets (MaxNodes, MaxDepth, Limits), the fault
	// plan and NoPlan of the initial build, of each repair and of each
	// healing rebuild, each one run. A repaired tree is bounded by
	// MaxNodes as a run's tree is. Cache, CacheSize, Memo and Workers
	// are owned by the view and ignored.
	Run pt.Options
}

// nodeMeta is the per-node bookkeeping the tree itself cannot carry:
// finalization erases State, and the stop condition's verdict is not
// recorded anywhere else. rule is an expandable node's rule; it is nil
// for a text leaf and for a stopped node, which never re-expands (its
// verdict depends only on path configurations, which reuse preserves).
type nodeMeta struct {
	state string
	rule  *pt.Rule
}

// Report describes what one Apply did; watchers receive these.
type Report struct {
	Version     uint64   `json:"version"`
	Delta       string   `json:"delta"`
	Effective   int      `json:"effective_ops"`
	FullRebuild bool     `json:"full_rebuild"`
	Dirty       int      `json:"dirty"`   // nodes a dirty rule governs, each re-expanded or skipped (see walk.visit)
	Fresh       int      `json:"fresh"`   // nodes newly built
	Dropped     int      `json:"dropped"` // nodes discarded
	Nodes       int      `json:"nodes"`   // live nodes after the apply
	QueriesRun  int      `json:"queries_run"`
	Paths       []string `json:"paths,omitempty"` // canonical paths of changed-subtree roots
	Truncated   bool     `json:"paths_truncated,omitempty"`
}

// ViewStats is a cheap point-in-time summary.
type ViewStats struct {
	Version      uint64
	Nodes        int   // live nodes in the tree
	QueriesTotal int64 // rule queries evaluated across build + all applies
	Broken       bool
}

// View is a published tree kept consistent with a database instance.
// The view owns its memo and reads its instance: the one NewView was
// given, or the last target of Reconcile. Apply writes the view's
// instance in place, so only a caller that owns that instance may call
// it; a caller whose instances are shared (a registry's versions) moves
// the view with Reconcile, which never writes one. All methods are safe
// for concurrent use; Apply and Reconcile serialize against readers, so
// a render never observes a half-repaired tree.
type View struct {
	mu   sync.RWMutex
	tr   *pt.Transducer
	inst *relation.Instance
	memo *eval.Memo
	opts Options

	tree *xmltree.Tree
	meta map[*xmltree.Node]nodeMeta

	// same holds one repair walk's unchanged re-expansions (see visit);
	// it is emptied after each walk and kept, so its buckets are reused.
	same map[sameKey]*relation.Relation

	version uint64
	queries int64
	history []*Report
	notify  chan struct{}
	broken  bool
}

// NewView builds the initial tree for tr over inst and returns the live
// view, which reads inst from then on (see View for who may write it).
func NewView(ctx context.Context, tr *pt.Transducer, inst *relation.Instance, opts Options) (*View, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	v := &View{
		tr:     tr,
		inst:   inst,
		memo:   eval.NewMemo(0),
		opts:   opts,
		same:   make(map[sameKey]*relation.Relation),
		notify: make(chan struct{}),
	}
	v.memo.BindInstance(inst)
	q, err := v.rebuild(ctx)
	if err != nil {
		return nil, err
	}
	v.version, v.queries = 1, int64(q)
	return v, nil
}

// record enters a node a run just finalized into meta.
func (v *View) record(meta map[*xmltree.Node]nodeMeta, ev pt.StepEvent) {
	m := nodeMeta{state: ev.State}
	if ev.Node.Tag != xmltree.TextTag && !ev.Stopped {
		m.rule, _ = v.tr.Rule(ev.State, ev.Node.Tag)
	}
	meta[ev.Node] = m
}

// runOpts derives the pt options for builds and repairs: caller
// budgets, view-owned cache.
func (v *View) runOpts() pt.Options {
	o := v.opts.Run
	o.Cache = pt.CacheQueries
	o.Memo = v.memo
	return o
}

// rebuild re-derives the whole tree from the current instance and
// returns the queries it ran. The new tree and bookkeeping are committed
// only on success, so a failed rebuild leaves the previous (possibly
// broken) state for the caller to flag.
func (v *View) rebuild(ctx context.Context) (int, error) {
	sr, err := v.tr.NewStepRun(ctx, v.inst, v.runOpts())
	if err != nil {
		return 0, err
	}
	defer sr.Close()
	meta := make(map[*xmltree.Node]nodeMeta)
	sr.Observe(func(ev pt.StepEvent) { v.record(meta, ev) })
	res, err := sr.Run()
	if err != nil {
		return 0, err
	}
	v.tree, v.meta, v.broken = res.Xi, meta, false
	return res.Stats.QueriesRun, nil
}

// Apply validates and applies d to the view's instance in place, then
// repairs the tree. It returns the report describing what changed. On an
// ineffective delta (every op a no-op) the version does not move and
// watchers are not woken. If the repair fails (cancellation, budget,
// fault), the view is flagged broken and the error is returned; the
// next Apply rebuilds it, and heals it if the rebuild succeeds.
func (v *View) Apply(ctx context.Context, d *relation.Delta) (*Report, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	eff, err := v.inst.Apply(d)
	if err != nil {
		return nil, err
	}
	return v.advance(ctx, eff, d)
}

// Reconcile repairs the view to target's contents, as one Apply of the
// delta from the view's instance to target (deletes first, relation by
// relation in name order), and from then on reads target itself, which
// it never writes; a failed repair leaves the view broken, as Apply
// does. Only the relations target does not share by pointer with the
// view's instance are compared, so a target Derived from it by one delta
// costs the touched relations. A target with the view's contents is
// adopted with no report and no version change.
func (v *View) Reconcile(ctx context.Context, target *relation.Instance) (*Report, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	d := &relation.Delta{}
	names := append(v.inst.Schema().Names(), target.Schema().Names()...)
	sort.Strings(names)
	for i, n := range names {
		shared := v.inst.Has(n) && target.Has(n) && v.inst.Rel(n) == target.Rel(n)
		if shared || i > 0 && names[i-1] == n {
			continue
		}
		missing(d, false, n, v.inst, target)
		missing(d, true, n, target, v.inst)
	}
	v.inst = target
	return v.advance(ctx, d, d)
}

// missing appends to d, as inserts or deletes in tuple order, the
// tuples of from's relation n that other lacks (a relation absent from a
// schema reads as empty). It reads the relations in their stored order
// and sorts only what it appends, so a fresh version's relation is
// never sorted for the diff.
func missing(d *relation.Delta, insert bool, n string, from, other *relation.Instance) {
	if !from.Has(n) {
		return
	}
	var o *relation.Relation
	if other.Has(n) {
		o = other.Rel(n)
	}
	start := len(d.Ops)
	from.Rel(n).EachUnordered(func(t value.Tuple) bool {
		if o == nil || !o.Contains(t) {
			d.Ops = append(d.Ops, relation.DeltaOp{Insert: insert, Rel: n, Tuple: t})
		}
		return true
	})
	slices.SortFunc(d.Ops[start:], func(a, b relation.DeltaOp) int { return value.CompareTuples(a.Tuple, b.Tuple) })
}

// advance repairs the tree after eff, the effective part of the delta d,
// moved the view's instance. The caller holds v.mu.
func (v *View) advance(ctx context.Context, eff, d *relation.Delta) (*Report, error) {
	// Reconcile the memo: drop the results of the queries that read a
	// mutated relation, then re-pin to the new instance version so the
	// staleness guard keeps the survivors.
	dirty, stale := v.tr.Readers(eff.Rels())
	v.memo.InvalidateQueries(stale)
	v.memo.BindInstance(v.inst)
	if eff.Empty() && !v.broken {
		return &Report{Version: v.version, Delta: d.String(), Nodes: len(v.meta)}, nil
	}

	rep := &Report{Delta: eff.String(), Effective: eff.Len()}
	var err error
	switch {
	case v.broken:
		rep.FullRebuild, rep.Paths = true, []string{"/" + v.tr.RootTag + "[1]"}
		rep.QueriesRun, err = v.rebuild(ctx)
	case len(dirty) > 0:
		err = v.repair(ctx, dirty, rep)
	}
	v.queries += int64(rep.QueriesRun)
	if err != nil {
		// A failed repair may leave the tree half-repaired; only a
		// rebuild restores the invariant.
		v.broken = true
		return nil, fmt.Errorf("incr: after delta %s: %w", eff, err)
	}
	v.version++
	rep.Version = v.version
	rep.Nodes = len(v.meta)
	v.history = append(v.history, rep)
	if len(v.history) > historyCap {
		v.history = v.history[len(v.history)-historyCap:]
	}
	close(v.notify)
	v.notify = make(chan struct{})
	return rep, nil
}

// frame is a node on the repair walk's path, with its state and its
// next child to visit.
type frame struct {
	n     *xmltree.Node
	state string
	next  int
}

// walk is one repair's state. path is the DFS stack itself: the visited
// node's ancestors. x is the repair run's rule step, which every dirty
// node re-expands through; old and slot are reexpand's reused matching
// buffers.
type walk struct {
	v       *View
	dirty   []*pt.Rule // a handful at most: scanned, not hashed
	x       *pt.Expander
	rep     *Report
	path    []frame
	pending []pt.PendingConfig
	old     []oldChild
	slot    []int32 // hash bucket → first unused old index, or -1
}

// sameKey is a configuration: a rule fixes its state and tag.
type sameKey struct {
	rule *pt.Rule
	h    uint64 // register hash
}

type oldChild struct {
	n     *xmltree.Node
	state string
	h     uint64 // register hash
	next  int32  // next unused old index in the bucket, or -1
}

// repair is a top-down walk that re-expands exactly the nodes governed
// by dirty rules, reusing every child whose configuration survives and
// seeding genuinely new children on the frontier of the run it
// re-expands through. A clean node costs a metadata lookup.
func (v *View) repair(ctx context.Context, dirty []*pt.Rule, rep *Report) error {
	sr, err := v.tr.RestoreStepRun(ctx, v.inst, v.runOpts(), v.tree.Root, nil, pt.Stats{})
	if err != nil {
		return err
	}
	defer sr.Close()
	w := &walk{v: v, dirty: dirty, x: sr.Expander(), rep: rep}
	defer clear(v.same)
	if err := w.visit(v.tree.Root); err != nil {
		return err
	}
	// Iterative (the depth-10⁶ regime), in document order.
	for steps := 1; len(w.path) > 0; steps++ {
		top := &w.path[len(w.path)-1]
		if top.next == len(top.n.Children) {
			w.path = w.path[:len(w.path)-1]
			continue
		}
		top.next++
		if steps%1024 == 0 {
			if err := sr.Canceled(); err != nil {
				return err
			}
		}
		if err := w.visit(top.n.Children[top.next-1]); err != nil {
			return err
		}
	}
	if len(w.pending) == 0 {
		return nil
	}
	// Besides the fresh nodes, the tree holds the finalized ones in meta.
	if err := sr.Seed(w.pending, len(v.meta)+len(w.pending)); err != nil {
		return err
	}
	sr.Observe(func(ev pt.StepEvent) {
		v.record(v.meta, ev)
		rep.Fresh++
	})
	res, err := sr.Run()
	if err != nil {
		return err
	}
	rep.QueriesRun += res.Stats.QueriesRun
	return nil
}

// visit re-expands n if a dirty rule governs it and pushes it if it has
// children (a stopped node has neither). It skips text leaves and fresh
// children, the only nodes still carrying a State (finalizing clears it).
// A dirty node whose configuration an earlier node re-expanded without
// change is counted but not re-expanded: by Proposition 1(1) the two
// had the same children before the delta and get the same ones after.
func (w *walk) visit(n *xmltree.Node) error {
	if n.Tag == xmltree.TextTag || n.State != "" {
		return nil
	}
	m, ok := w.v.meta[n]
	if !ok {
		return fmt.Errorf("incr: node <%s> at %s has no metadata", n.Tag, w.pathTo())
	}
	if m.rule != nil && slices.Contains(w.dirty, m.rule) {
		k := sameKey{m.rule, n.Reg.Hash()}
		if reg, ok := w.v.same[k]; ok && reg.Equal(n.Reg) {
			w.rep.Dirty++
		} else if changed, err := w.reexpand(n, m); err != nil {
			return err
		} else if !changed {
			w.v.same[k] = n.Reg
		} else if len(w.rep.Paths) < maxReportPaths {
			w.rep.Paths = append(w.rep.Paths, w.pathTo())
		} else {
			w.rep.Truncated = true
		}
	}
	if len(n.Children) > 0 {
		w.path = append(w.path, frame{n: n, state: m.state})
	}
	return nil
}

// pathTo builds the canonical /tag[i] path (i counts same-tag siblings,
// 1-based) of the node being visited, the end of the path's frames.
func (w *walk) pathTo() string {
	b := []byte("/" + w.v.tree.Root.Tag + "[1]")
	for _, f := range w.path {
		c, k := f.n.Children[f.next-1], 1
		for _, s := range f.n.Children[:f.next-1] {
			if s.Tag == c.Tag {
				k++
			}
		}
		b = fmt.Appendf(b, "/%s[%d]", c.Tag, k)
	}
	return string(b)
}

// reexpand re-derives a dirty node's children and reports whether they
// changed. Each spec reuses by reference the first unused old child, in
// document order, with its configuration (sound by determinism — see the
// package comment); the other specs become fresh frontier entries, and
// unmatched old children are dropped. A list is rewritten in place if
// its length holds, so an unchanged one costs no allocation.
func (w *walk) reexpand(n *xmltree.Node, m nodeMeta) (bool, error) {
	v, rep, old := w.v, w.rep, n.Children
	specs, q, err := w.x.Expand(m.state, n.Tag, n.Reg)
	rep.QueriesRun += q
	if err != nil {
		return false, err
	}
	rep.Dirty++
	// Hash-bucket the old children into over twice as many slots, each
	// chaining its entries in document order: N children match in O(N).
	size := 2 << bits.Len(uint(len(old)))
	w.slot = slices.Grow(w.slot[:0], size)[:size]
	for i := range w.slot {
		w.slot[i] = -1
	}
	w.old = slices.Grow(w.old[:0], len(old))[:len(old)]
	for j := len(old) - 1; j >= 0; j-- {
		cm, ok := v.meta[old[j]]
		if !ok {
			return false, fmt.Errorf("incr: child <%s> of <%s> has no metadata", old[j].Tag, n.Tag)
		}
		h := old[j].Reg.Hash()
		b := &w.slot[h&uint64(size-1)]
		w.old[j], *b = oldChild{old[j], cm.state, h, *b}, int32(j)
	}
	changed, children := len(specs) != len(old), old
	if changed {
		children = make([]*xmltree.Node, len(specs))
	}
	var anc []pt.Config // the fresh children's ancestors: the path's configurations and n's
	for i, sp := range specs {
		if j := w.take(sp); j >= 0 {
			children[i], changed = w.old[j].n, changed || j != i
			continue
		}
		if anc == nil {
			anc = make([]pt.Config, 0, len(w.path)+1)
			for _, f := range w.path {
				anc = append(anc, pt.NewConfig(f.state, f.n.Tag, f.n.Reg))
			}
			anc = append(anc, pt.NewConfig(m.state, n.Tag, n.Reg))
		}
		children[i], changed = &xmltree.Node{Tag: sp.Tag, State: sp.State, Reg: sp.Reg}, true
		w.pending = append(w.pending, pt.PendingConfig{Node: children[i], Ancestors: anc, Depth: len(w.path) + 2})
	}
	for _, j := range w.slot { // what is still linked was not reused
		for ; j >= 0; j = w.old[j].next {
			v.dropSubtree(w.old[j].n, rep)
		}
	}
	n.Children = children
	return changed, nil
}

// take unlinks and returns the first old child in sp's bucket with sp's
// configuration, or -1: a hash match is confirmed by state, tag, Equal.
func (w *walk) take(sp pt.ChildSpec) int {
	h := sp.Reg.Hash()
	for link := &w.slot[h&uint64(len(w.slot)-1)]; *link >= 0; link = &w.old[*link].next {
		j := *link
		if o := &w.old[j]; o.h == h && o.state == sp.State && o.n.Tag == sp.Tag && o.n.Reg.Equal(sp.Reg) {
			*link = o.next
			return int(j)
		}
	}
	return -1
}

// dropSubtree forgets a discarded subtree's bookkeeping so the meta map
// cannot leak across long delta sequences.
func (v *View) dropSubtree(root *xmltree.Node, rep *Report) {
	stack := []*xmltree.Node{root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		delete(v.meta, n)
		rep.Dropped++
		stack = append(stack, n.Children...)
	}
}

// Version returns the view version: 1 after the initial build, +1 per
// effective Apply.
func (v *View) Version() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.version
}

// Stats returns a point-in-time summary.
func (v *View) Stats() ViewStats {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return ViewStats{
		Version:      v.version,
		Nodes:        len(v.meta),
		QueriesTotal: v.queries,
		Broken:       v.broken,
	}
}

// Snapshot renders the current tree (canonical or XML form, virtual
// tags spliced) and returns the bytes with the version they correspond
// to. Rendering holds the read lock, so the bytes are never torn across
// a concurrent Apply.
func (v *View) Snapshot(canonical bool) ([]byte, uint64, error) {
	var buf bytes.Buffer
	version, _, _, err := v.Render(&buf, canonical)
	if err != nil {
		return nil, version, err
	}
	return buf.Bytes(), version, nil
}

// Render writes what Snapshot returns to w and reports the version, the
// node count (pt.Stats.Nodes of a run over the view's instance) and the
// instance of the tree it wrote, all read under one hold of the read
// lock. A broken view writes nothing and still reports its instance. The
// lock is held while w is written, blocking Apply, so w should be a
// buffer, not a network connection.
func (v *View) Render(w io.Writer, canonical bool) (version uint64, nodes int, inst *relation.Instance, err error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if v.broken {
		return v.version, 0, v.inst, ErrBroken
	}
	write := v.tree.WriteXMLVirtual
	if canonical {
		write = v.tree.WriteCanonicalVirtual
	}
	if err := write(w, v.tr.Virtual); err != nil {
		return v.version, 0, v.inst, err
	}
	return v.version, len(v.meta), v.inst, nil
}

// Changes returns the buffered reports with Version > after, a channel
// closed on the next effective Apply (for long-poll/SSE waiters), and
// whether the buffer reaches back far enough to make the list complete
// (false means the watcher missed reports and should resync with a
// fresh Snapshot).
func (v *View) Changes(after uint64) (reports []*Report, wait <-chan struct{}, complete bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	// Version 1 is the initial build and never has a report, so a cursor
	// below it asks for exactly what a cursor AT it does.
	if after < 1 {
		after = 1
	}
	oldest := v.version + 1
	if len(v.history) > 0 {
		oldest = v.history[0].Version
	}
	complete = after+1 >= oldest || after >= v.version
	for _, r := range v.history {
		if r.Version > after {
			reports = append(reports, r)
		}
	}
	return reports, v.notify, complete
}
