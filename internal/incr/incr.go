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
// untouched relations are its only inputs), and a child whose
// configuration key survives a dirty parent's re-expansion unchanged
// roots a subtree identical to what a full rebuild would generate —
// every ancestor configuration on its path is also unchanged, so the
// ancestor stop condition resolves identically too. Repair therefore:
//
//  1. computes the DIRTY RULES — (state, tag) pairs whose item queries
//     mention a relation the effective delta touched;
//  2. walks the tree top-down, re-expanding only nodes governed by
//     dirty rules, matching the new child specs against the old
//     children by configuration key to reuse surviving subtrees;
//  3. expands genuinely new children through pt.RestoreStepRun with the
//     view's memo, which still holds every result whose query the
//     delta could not have changed (eval.Memo.InvalidateRelations).
//
// When the damage estimate (live nodes governed by dirty rules) exceeds
// a configurable fraction of the tree, repair degenerates to walking
// everything and the View falls back to a full rebuild — still through
// the selectively-invalidated memo, so even the fallback is far cheaper
// than a cold run.
package incr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"ptx/internal/eval"
	"ptx/internal/logic"
	"ptx/internal/pt"
	"ptx/internal/relation"
	"ptx/internal/runctl"
	"ptx/internal/xmltree"
)

// DefaultRebuildThreshold is the damage fraction above which Apply
// abandons surgical repair for a full rebuild: walking a mostly-dirty
// tree costs more bookkeeping than re-deriving it through the memo.
const DefaultRebuildThreshold = 0.5

// historyCap bounds the change-report ring buffer a View keeps for
// watchers; maxReportPaths bounds the damage paths in one report.
const (
	historyCap     = 64
	maxReportPaths = 32
)

// ErrBroken is returned by Snapshot when a failed repair (and failed
// rebuild) left the view unusable; the next successful Apply heals it.
var ErrBroken = errors.New("incr: view broken by a failed repair; next Apply rebuilds")

// Options configures a View.
type Options struct {
	// RebuildThreshold is the damage fraction triggering full rebuild:
	// 0 selects DefaultRebuildThreshold, negative disables the fallback
	// (always repair surgically), values ≥ 1 effectively disable it too.
	RebuildThreshold float64
	// CacheSize bounds the view's memo (0 = eval.DefaultMemoSize).
	CacheSize int
	// Run supplies budgets (MaxNodes, MaxDepth, Limits, Faults) for the
	// initial build, repairs, and rebuilds. Cache, CacheSize, Memo and
	// Workers are owned by the view and ignored.
	Run pt.Options
}

type ruleKey struct{ state, tag string }

// nodeMeta is the per-node bookkeeping the tree itself cannot carry:
// finalization erases State, and the stop condition's verdict is not
// recorded anywhere else. stopped nodes never re-expand (their verdict
// depends only on path configurations, which reuse preserves).
type nodeMeta struct {
	state   string
	stopped bool
}

// Report describes what one Apply did; watchers receive these.
type Report struct {
	Version     uint64   `json:"version"`
	Delta       string   `json:"delta"`
	Effective   int      `json:"effective_ops"`
	FullRebuild bool     `json:"full_rebuild"`
	Dirty       int      `json:"dirty"`   // nodes re-expanded in place
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
	Expandable   int   // non-text, non-stopped nodes (damage-estimate base)
	QueriesTotal int64 // rule queries evaluated across build + all applies
	Broken       bool
}

// View is a published tree kept consistent with a mutable database
// instance. The View OWNS both its instance and its memo: callers must
// mutate the database only through Apply. All methods are safe for
// concurrent use; Apply serializes against readers, so a render never
// observes a half-repaired tree.
type View struct {
	mu   sync.RWMutex
	tr   *pt.Transducer
	inst *relation.Instance
	memo *eval.Memo
	opts Options

	tree   *xmltree.Tree
	meta   map[*xmltree.Node]nodeMeta
	counts map[ruleKey]int // live expandable nodes per (state, tag)
	total  int             // Σ counts

	relRules map[string][]ruleKey // base relation → rules whose queries mention it

	version uint64
	queries int64
	history []*Report
	notify  chan struct{}
	broken  bool
}

// NewView builds the initial tree for tr over inst and returns the live
// view. Ownership of inst transfers to the view — clone before calling
// if the caller keeps mutating its copy.
func NewView(ctx context.Context, tr *pt.Transducer, inst *relation.Instance, opts Options) (*View, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	v := &View{
		tr:       tr,
		inst:     inst,
		memo:     eval.NewMemo(opts.CacheSize),
		opts:     opts,
		relRules: make(map[string][]ruleKey),
		notify:   make(chan struct{}),
	}
	v.memo.BindInstance(inst)
	for _, r := range tr.Rules() {
		rk := ruleKey{r.State, r.Tag}
		seen := make(map[string]bool)
		for _, it := range r.Items {
			for _, rel := range logic.Relations(it.Query.F) {
				if rel == pt.RegRel || seen[rel] {
					continue
				}
				seen[rel] = true
				v.relRules[rel] = append(v.relRules[rel], rk)
			}
		}
	}
	if err := v.rebuild(ctx); err != nil {
		return nil, err
	}
	v.version = 1
	return v, nil
}

// runOpts derives the pt options for builds and frontier expansions:
// caller budgets, view-owned cache.
func (v *View) runOpts() pt.Options {
	o := v.opts.Run
	o.Cache = pt.CacheQueries
	o.CacheSize = 0
	o.Memo = v.memo
	return o
}

func (v *View) threshold() float64 {
	if v.opts.RebuildThreshold == 0 {
		return DefaultRebuildThreshold
	}
	return v.opts.RebuildThreshold
}

// rebuild re-derives the whole tree from the current instance. The new
// tree and bookkeeping are committed only on success, so a failed
// rebuild leaves the previous (possibly broken) state for the caller to
// flag.
func (v *View) rebuild(ctx context.Context) error {
	sr, err := v.tr.NewStepRun(ctx, v.inst, v.runOpts())
	if err != nil {
		return err
	}
	defer sr.Close()
	meta := make(map[*xmltree.Node]nodeMeta)
	counts := make(map[ruleKey]int)
	total := 0
	sr.Observe(func(ev pt.StepEvent) {
		meta[ev.Node] = nodeMeta{state: ev.State, stopped: ev.Stopped}
		if ev.Node.Tag != xmltree.TextTag && !ev.Stopped {
			counts[ruleKey{ev.State, ev.Node.Tag}]++
			total++
		}
	})
	res, err := sr.Run()
	if err != nil {
		return err
	}
	v.tree, v.meta, v.counts, v.total = res.Xi, meta, counts, total
	v.queries += int64(res.Stats.QueriesRun)
	v.broken = false
	return nil
}

// Apply validates and applies d to the view's instance, then repairs
// the tree. It returns the report describing what changed. On an
// ineffective delta (every op a no-op) the version does not move and
// watchers are not woken. If repair AND the rebuild fallback both fail
// (cancellation, budget), the view is flagged broken and the error is
// returned; the next successful Apply heals it.
func (v *View) Apply(ctx context.Context, d *relation.Delta) (*Report, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.applyLocked(ctx, d)
}

// Reconcile moves the view to target's contents, which it only reads:
// under the view's lock it applies, as one Apply, the delta that turns
// the view's own instance into target. It catches a view up when its
// history was rewritten rather than extended. An equal target emits no
// report and leaves the version unchanged.
func (v *View) Reconcile(ctx context.Context, target *relation.Instance) (*Report, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	d := &relation.Delta{}
	names := append(v.inst.Schema().Names(), target.Schema().Names()...)
	sort.Strings(names)
	for i, n := range names {
		if i == 0 || names[i-1] != n {
			missing(d, false, n, v.inst, target)
			missing(d, true, n, target, v.inst)
		}
	}
	return v.applyLocked(ctx, d)
}

// missing appends to d, as inserts or deletes, the tuples of from's
// relation n that other lacks (a relation absent from a schema reads as
// empty).
func missing(d *relation.Delta, insert bool, n string, from, other *relation.Instance) {
	if !from.Has(n) {
		return
	}
	for _, t := range from.Rel(n).Sorted() {
		if !other.Has(n) || !other.Rel(n).Contains(t) {
			d.Ops = append(d.Ops, relation.DeltaOp{Insert: insert, Rel: n, Tuple: t})
		}
	}
}

// applyLocked is Apply's body; the caller holds v.mu.
func (v *View) applyLocked(ctx context.Context, d *relation.Delta) (*Report, error) {
	eff, err := v.inst.Apply(d)
	if err != nil {
		return nil, err
	}
	if eff.Empty() && !v.broken {
		return &Report{Version: v.version, Delta: d.String(), Nodes: len(v.meta)}, nil
	}

	// Reconcile the memo: drop results whose query reads a mutated
	// relation, then re-pin to the new instance version so the staleness
	// guard keeps the survivors.
	v.memo.InvalidateRelations(eff.Rels())
	v.memo.BindInstance(v.inst)

	rep := &Report{Delta: eff.String(), Effective: eff.Len()}
	dirty := make(map[ruleKey]bool)
	for _, rel := range eff.Rels() {
		for _, rk := range v.relRules[rel] {
			dirty[rk] = true
		}
	}
	est := 0
	for rk := range dirty {
		est += v.counts[rk]
	}
	th := v.threshold()
	full := v.broken ||
		(th >= 0 && v.total > 0 && float64(est) > th*float64(v.total))
	if !full && len(dirty) > 0 {
		if err := v.repair(ctx, dirty, rep); err != nil {
			// The tree may be half-repaired; only a rebuild restores the
			// invariant.
			v.broken = true
			full = true
		}
	}
	if full {
		before := v.queries
		if err := v.rebuild(ctx); err != nil {
			v.broken = true
			return nil, fmt.Errorf("incr: rebuild after delta %s: %w", eff, err)
		}
		rep.FullRebuild = true
		rep.Dirty, rep.Fresh, rep.Dropped = 0, 0, 0
		rep.QueriesRun = int(v.queries - before)
		rep.Paths = []string{v.rootPath()}
		rep.Truncated = false
	} else {
		v.queries += int64(rep.QueriesRun)
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

func (v *View) rootPath() string {
	return "/" + v.tree.Root.Tag + "[1]"
}

func addPath(rep *Report, path string) {
	if len(rep.Paths) >= maxReportPaths {
		rep.Truncated = true
		return
	}
	rep.Paths = append(rep.Paths, path)
}

// repair is the surgical path: a top-down walk that re-expands exactly
// the nodes governed by dirty rules, reusing every child whose
// configuration key survives and collecting genuinely new children as a
// frontier for RestoreStepRun.
func (v *View) repair(ctx context.Context, dirty map[ruleKey]bool, rep *Report) error {
	ctl := runctl.New(ctx, runctl.Limits{})
	base := eval.NewEnv(v.inst).WithControl(ctl)
	if v.opts.Run.NoPlan {
		base = base.WithoutPlanner()
	}
	anc := make(map[string]bool)
	fresh := make(map[*xmltree.Node]bool)
	var pending []pt.PendingConfig

	// Iterative DFS: exit items pop the configuration key off the
	// ancestor set, so the walk survives the depth-10⁶ regime.
	type item struct {
		n     *xmltree.Node
		depth int
		path  string
		key   string // exit items: key to remove from anc
		exit  bool
	}
	stack := []item{{n: v.tree.Root, depth: 1, path: v.rootPath()}}
	steps := 0
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if it.exit {
			delete(anc, it.key)
			continue
		}
		if steps++; steps%1024 == 0 {
			if err := ctl.Canceled(); err != nil {
				return err
			}
		}
		n := it.n
		if n.Tag == xmltree.TextTag || fresh[n] {
			continue
		}
		m, ok := v.meta[n]
		if !ok {
			return fmt.Errorf("incr: node <%s> at %s has no metadata", n.Tag, it.path)
		}
		if m.stopped {
			continue
		}
		key := pt.ConfigKey(m.state, n.Tag, n.Reg)
		if dirty[ruleKey{m.state, n.Tag}] {
			changed, err := v.reexpand(n, m, key, it.depth, base, anc, fresh, &pending, rep)
			if err != nil {
				return err
			}
			if changed {
				addPath(rep, it.path)
			}
		}
		if len(n.Children) == 0 {
			continue
		}
		anc[key] = true
		stack = append(stack, item{exit: true, key: key})
		// Children are pushed in reverse so the walk visits them in
		// document order, keeping report paths deterministic.
		paths := childPaths(it.path, n.Children)
		for i := len(n.Children) - 1; i >= 0; i-- {
			stack = append(stack, item{n: n.Children[i], depth: it.depth + 1, path: paths[i]})
		}
	}

	if len(pending) == 0 {
		return nil
	}
	sr, err := v.tr.RestoreStepRun(ctx, v.inst, v.runOpts(), v.tree.Root, pending, pt.Stats{})
	if err != nil {
		return err
	}
	defer sr.Close()
	sr.Observe(func(ev pt.StepEvent) {
		v.meta[ev.Node] = nodeMeta{state: ev.State, stopped: ev.Stopped}
		if ev.Node.Tag != xmltree.TextTag && !ev.Stopped {
			v.counts[ruleKey{ev.State, ev.Node.Tag}]++
			v.total++
		}
		rep.Fresh++
	})
	res, err := sr.Run()
	if err != nil {
		return err
	}
	rep.QueriesRun += res.Stats.QueriesRun
	return nil
}

// childPaths computes the canonical /tag[i] path of each child (index
// counts same-tag siblings, 1-based, in document order).
func childPaths(parent string, children []*xmltree.Node) []string {
	idx := make(map[string]int, len(children))
	out := make([]string, len(children))
	for i, c := range children {
		idx[c.Tag]++
		out[i] = parent + "/" + c.Tag + "[" + strconv.Itoa(idx[c.Tag]) + "]"
	}
	return out
}

// reexpand re-derives the children of a dirty node and reports whether
// the child list actually changed. Old children are matched by
// configuration key and reused by reference (sound by determinism —
// see the package comment); unmatched specs become frontier entries for
// the follow-up StepRun; unmatched old children are dropped.
func (v *View) reexpand(n *xmltree.Node, m nodeMeta, key string, depth int, base *eval.Env, anc map[string]bool, fresh map[*xmltree.Node]bool, pending *[]pt.PendingConfig, rep *Report) (bool, error) {
	specs, q, err := v.tr.ExpandConfig(m.state, n.Tag, n.Reg, base, v.memo)
	rep.QueriesRun += q
	if err != nil {
		return false, err
	}
	rep.Dirty++
	old := n.Children
	if len(specs) == 0 && len(old) == 0 {
		return false, nil
	}
	oldByKey := make(map[string][]*xmltree.Node, len(old))
	for _, c := range old {
		cm, ok := v.meta[c]
		if !ok {
			return false, fmt.Errorf("incr: child <%s> of <%s> has no metadata", c.Tag, n.Tag)
		}
		ck := pt.ConfigKey(cm.state, c.Tag, c.Reg)
		oldByKey[ck] = append(oldByKey[ck], c)
	}

	// Ancestor key set for fresh children: the walk's current set plus
	// this node's own key.
	var ancKeys []string
	lazyAnc := func() []string {
		if ancKeys == nil {
			ancKeys = make([]string, 0, len(anc)+1)
			for k := range anc {
				ancKeys = append(ancKeys, k)
			}
			ancKeys = append(ancKeys, key)
		}
		return ancKeys
	}

	changed := len(specs) != len(old)
	children := make([]*xmltree.Node, 0, len(specs))
	for i, sp := range specs {
		sk := pt.ConfigKey(sp.State, sp.Tag, sp.Reg)
		if q := oldByKey[sk]; len(q) > 0 {
			c := q[0]
			oldByKey[sk] = q[1:]
			children = append(children, c)
			if i >= len(old) || old[i] != c {
				changed = true
			}
			continue
		}
		f := &xmltree.Node{Tag: sp.Tag, State: sp.State, Reg: sp.Reg}
		fresh[f] = true
		*pending = append(*pending, pt.PendingConfig{Node: f, Ancestors: lazyAnc(), Depth: depth + 1})
		children = append(children, f)
		changed = true
	}
	for _, q := range oldByKey {
		for _, c := range q {
			v.dropSubtree(c, rep)
			changed = true
		}
	}
	n.Children = children
	return changed, nil
}

// dropSubtree forgets a discarded subtree's bookkeeping so the meta map
// cannot leak across long delta sequences.
func (v *View) dropSubtree(root *xmltree.Node, rep *Report) {
	stack := []*xmltree.Node{root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if m, ok := v.meta[n]; ok {
			if n.Tag != xmltree.TextTag && !m.stopped {
				v.counts[ruleKey{m.state, n.Tag}]--
				v.total--
			}
			delete(v.meta, n)
		}
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
		Expandable:   v.total,
		QueriesTotal: v.queries,
		Broken:       v.broken,
	}
}

// Snapshot renders the current tree (canonical or XML form, virtual
// tags spliced) and returns the bytes with the version they correspond
// to. Rendering holds the read lock, so the bytes are never torn across
// a concurrent Apply.
func (v *View) Snapshot(canonical bool) ([]byte, uint64, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if v.broken {
		return nil, v.version, ErrBroken
	}
	var buf bytes.Buffer
	var err error
	if canonical {
		err = v.tree.WriteCanonicalVirtual(&buf, v.tr.Virtual)
	} else {
		err = v.tree.WriteXMLVirtual(&buf, v.tr.Virtual)
	}
	if err != nil {
		return nil, v.version, err
	}
	return buf.Bytes(), v.version, nil
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
	complete = true
	if len(v.history) > 0 {
		oldest := v.history[0].Version
		if after+1 < oldest && after < v.version {
			complete = false
		}
	} else if after < v.version && v.version > 1 {
		complete = false
	}
	for _, r := range v.history {
		if r.Version > after {
			reports = append(reports, r)
		}
	}
	return reports, v.notify, complete
}
