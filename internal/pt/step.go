package pt

import (
	"context"
	"fmt"
	"slices"

	"ptx/internal/relation"
	"ptx/internal/runctl"
	"ptx/internal/xmltree"
)

// StepRun is the run driver stepped by the caller, one configuration
// per step, built for checkpointing and resumption: the paper's
// determinism argument (Proposition 1(1)) makes the frontier of pending
// (state, tag, register) configurations a complete, restartable
// description of everything left to do, so a snapshot of (partial tree,
// frontier) taken between steps resumes to the exact tree an
// uninterrupted run would build.
//
// RunContext drains the same frontier with the same step; the step
// order is LIFO (document-order DFS), which makes the operation
// numbering deterministic — "interrupt at the k-th step" names the same
// cut point on every run.
type StepRun struct {
	d    *driver
	root *xmltree.Node
	ops  int64
}

// PendingConfig is the serializable view of one frontier entry, exposed
// for checkpointing. Node points into the partial tree returned by
// Tree(); Ancestors holds the configurations of its ancestors in no
// particular order, in a list other entries may share (do not modify).
type PendingConfig struct {
	Node      *xmltree.Node
	Ancestors []Config
	Depth     int
}

// NewStepRun starts a stepwise run of the τ-transformation on inst.
// Budgets and fault plans in opts apply exactly as in RunContext (the
// wall-clock deadline starts now). Callers must Close the run to release
// its timeout resources.
func (t *Transducer) NewStepRun(ctx context.Context, inst *relation.Instance, opts Options) (*StepRun, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	root, d := t.newRun(ctx, inst, opts).start()
	return &StepRun{d: d, root: root}, nil
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
	d := &driver{run: t.newRun(ctx, inst, opts), anc: newConfigSet()}
	d.seeds = slices.Clone(pending)
	d.tally = tally{nodes: prior.Nodes, queries: prior.QueriesRun, stops: prior.StopsApplied, maxDepth: prior.MaxDepth}
	return &StepRun{d: d, root: root}, nil
}

// Expander returns the run's rule step, for a caller that re-expands
// nodes outside the frontier (incremental repair's walk). It uses the
// run's memo, charges the run's controller (timeout, query and fixpoint
// budgets, fault plan), and neither attaches nor counts children.
func (s *StepRun) Expander() *Expander { return &s.d.x }

// Canceled reports, as a typed *runctl.ErrCanceled, whether the run's
// context is done or its timeout has passed.
func (s *StepRun) Canceled() error { return s.d.ctl.Canceled() }

// Seed adds pending to the frontier as RestoreStepRun adds its pending,
// unchecked, and charges the node budget for the tree the run is to
// complete, nodes in all (the pending ones included), as a run that
// built that tree is charged: the tree is bounded as a run's is.
func (s *StepRun) Seed(pending []PendingConfig, nodes int) error {
	// A run charges every node but the root it starts from.
	if err := s.d.ctl.AddNodes(nodes - 1); err != nil {
		return err
	}
	s.d.seeds = append(s.d.seeds, pending...)
	return nil
}

// Close releases the run's timeout resources. It is safe to call more
// than once and must be called even after a completed or failed run.
func (s *StepRun) Close() { s.d.cancel() }

// Done reports whether the frontier is empty (the transformation is
// complete and Result may be called).
func (s *StepRun) Done() bool { return s.d.done() }

// Ops returns the number of successfully completed steps of this runner
// (a resumed runner starts again at zero).
func (s *StepRun) Ops() int64 { return s.ops }

// Pending returns the serializable frontier, bottom of the stack first;
// feeding it back to RestoreStepRun in this order reproduces the step
// sequence exactly.
func (s *StepRun) Pending() []PendingConfig { return s.d.pending() }

// Tree returns the partial (or, once Done, final) register-carrying
// tree ξ. Frontier nodes still carry their State.
func (s *StepRun) Tree() *xmltree.Tree { return &xmltree.Tree{Root: s.root} }

// StatsSoFar returns the counters accumulated so far (including any
// prior counters a restore carried in). Unlike Result it is valid
// mid-run, which is what checkpoints record.
func (s *StepRun) StatsSoFar() Stats { return s.d.stats(s.d.tally) }

// Result returns the final tree and statistics; it errors if the
// frontier is not empty.
func (s *StepRun) Result() (*Result, error) {
	if !s.Done() {
		return nil, fmt.Errorf("pt: step run incomplete: %d configurations pending", len(s.d.frontier)+len(s.d.seeds))
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
func (s *StepRun) Observe(f func(StepEvent)) { s.d.observe = f }

// Step performs one step of the run driver: it takes the top frontier
// configuration and either finalizes it (text leaf, ancestor stop, empty
// or missing rule, all-empty forests) or evaluates its rule queries and
// pushes its children. Steps are ATOMIC with respect to the run state: a
// failed step — cancellation, budget, injected fault, query error,
// contained panic — leaves the configuration on the frontier and the
// tree untouched, so (tree, frontier) always describes exactly the
// remaining work. This is the invariant checkpoints rely on. done
// reports whether the frontier is empty after the step; errors are
// runctl-typed as in RunContext.
func (s *StepRun) Step() (done bool, err error) {
	defer runctl.Recover(&err, "pt.Step")
	if s.d.done() {
		return true, nil
	}
	if err := s.d.step(); err != nil {
		return false, err
	}
	s.ops++
	return s.d.done(), nil
}
