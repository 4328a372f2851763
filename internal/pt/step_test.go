// Stepwise-runner tests: StepRun, the run driver stepped by the caller,
// must agree with RunContext's drain byte-for-byte and stat-for-stat,
// and its checkpoint invariant — (tree, frontier) fully describes the
// remaining work at every step — must survive interruption and restore
// at arbitrary cut points.
package pt_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"ptx/internal/families"
	"ptx/internal/pt"
	"ptx/internal/registrar"
	"ptx/internal/relation"
	"ptx/internal/runctl"
	"ptx/internal/xmltree"
)

// stepWorkloads covers tuple- and relation-store transducers, recursive
// and not, including the Proposition 1 blowup families.
func stepWorkloads() map[string]struct {
	tr   *pt.Transducer
	inst *relation.Instance
} {
	pc := relation.NewInstance(families.PathCountSchema())
	pc.Add("S", "s")
	pc.Add("T", "t")
	pc.Add("R", "s", "m1")
	pc.Add("R", "s", "m2")
	pc.Add("R", "m1", "t")
	pc.Add("R", "m2", "t")
	return map[string]struct {
		tr   *pt.Transducer
		inst *relation.Instance
	}{
		"tau1/sample":   {registrar.Tau1(), registrar.SampleInstance()},
		"tau3/sample":   {registrar.Tau3(), registrar.SampleInstance()},
		"unfold/d6":     {families.UnfoldTransducer(), families.DiamondChain(6)},
		"counter/n2":    {families.CounterTransducer(), families.CounterInstance(2)},
		"pathcount/d4":  {families.PathCountTransducer(), pc},
		"tau1/chain-12": {registrar.Tau1(), registrar.ChainInstance(12)},
	}
}

func canonicalOf(t *testing.T, tr *pt.Transducer, res *pt.Result) string {
	t.Helper()
	var sb strings.Builder
	if err := res.Xi.WriteCanonicalVirtual(&sb, tr.Virtual); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return sb.String()
}

func TestStepRunMatchesRun(t *testing.T) {
	for name, w := range stepWorkloads() {
		t.Run(name, func(t *testing.T) {
			golden, err := w.tr.Run(w.inst, pt.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := canonicalOf(t, w.tr, golden)
			for _, cache := range []pt.CacheMode{pt.CacheOff, pt.CacheQueries} {
				sr, err := w.tr.NewStepRun(context.Background(), w.inst, pt.Options{Cache: cache})
				if err != nil {
					t.Fatal(err)
				}
				res, err := sr.Run()
				sr.Close()
				if err != nil {
					t.Fatalf("cache=%v: %v", cache, err)
				}
				if got := canonicalOf(t, w.tr, res); got != want {
					t.Errorf("cache=%v: stepwise output differs from Run", cache)
				}
				if res.Stats.Nodes != golden.Stats.Nodes ||
					res.Stats.MaxDepth != golden.Stats.MaxDepth ||
					res.Stats.StopsApplied != golden.Stats.StopsApplied {
					t.Errorf("cache=%v: stats diverged: step %+v vs run %+v", cache, res.Stats, golden.Stats)
				}
			}
		})
	}
}

// TestStepRunResumeSweep is the differential resume invariant at the pt
// layer: interrupting after k steps and restoring from the captured
// frontier yields the identical canonical bytes for EVERY cut point k.
func TestStepRunResumeSweep(t *testing.T) {
	for name, w := range stepWorkloads() {
		t.Run(name, func(t *testing.T) {
			golden, err := w.tr.Run(w.inst, pt.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := canonicalOf(t, w.tr, golden)

			count, err := w.tr.NewStepRun(context.Background(), w.inst, pt.Options{})
			if err != nil {
				t.Fatal(err)
			}
			full, err := count.Run()
			count.Close()
			if err != nil {
				t.Fatal(err)
			}
			total := int(count.Ops())
			if got := canonicalOf(t, w.tr, full); got != want {
				t.Fatal("uninterrupted stepwise run differs from Run")
			}

			cuts := sweep(total, 24)
			for _, k := range cuts {
				sr, err := w.tr.NewStepRun(context.Background(), w.inst, pt.Options{Cache: pt.CacheQueries})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < k; i++ {
					if _, err := sr.Step(); err != nil {
						t.Fatalf("k=%d step %d: %v", k, i, err)
					}
				}
				// Capture through a deep copy, the way a real checkpoint
				// would, so the restored run cannot alias the interrupted
				// one.
				tree, remap := sr.Tree().CloneShared()
				pending := sr.Pending()
				for i := range pending {
					pending[i].Node = remap[pending[i].Node]
				}
				prior := sr.StatsSoFar()
				sr.Close()

				rr, err := w.tr.RestoreStepRun(context.Background(), w.inst, pt.Options{}, tree.Root, pending, prior)
				if err != nil {
					t.Fatalf("k=%d restore: %v", k, err)
				}
				res, err := rr.Run()
				rr.Close()
				if err != nil {
					t.Fatalf("k=%d resume: %v", k, err)
				}
				if got := canonicalOf(t, w.tr, res); got != want {
					t.Errorf("k=%d/%d: resumed output differs from uninterrupted run", k, total)
				}
				if res.Stats.Nodes != golden.Stats.Nodes || res.Stats.MaxDepth != golden.Stats.MaxDepth {
					t.Errorf("k=%d: resumed stats %+v differ from %+v", k, res.Stats, golden.Stats)
				}
			}
		})
	}
}

// sweep returns every cut point when total is small, else ~limit evenly
// spaced ones always including 0, 1 and total-1.
func sweep(total, limit int) []int {
	if total <= limit {
		out := make([]int, total)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := []int{0, 1}
	stride := total / limit
	for k := stride; k < total-1; k += stride {
		out = append(out, k)
	}
	return append(out, total-1)
}

// TestStepAtomicity: a failed step must leave the frontier and tree
// exactly as they were, so the run is resumable from the failure point.
func TestStepAtomicity(t *testing.T) {
	tr := families.UnfoldTransducer()
	inst := families.DiamondChain(6)
	golden, err := tr.Run(inst, pt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalOf(t, tr, golden)

	boom := errors.New("injected")
	for _, n := range []int64{1, 3, 7, 20} {
		plan := &runctl.FaultPlan{Op: runctl.OpQuery, N: n, Err: boom}
		sr, err := tr.NewStepRun(context.Background(), inst, pt.Options{Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		var stepErr error
		for !sr.Done() {
			before := len(sr.Pending())
			if _, stepErr = sr.Step(); stepErr != nil {
				if after := len(sr.Pending()); after != before {
					t.Fatalf("N=%d: failed step changed frontier: %d -> %d", n, before, after)
				}
				break
			}
		}
		if !errors.Is(stepErr, boom) {
			t.Fatalf("N=%d: got %v, want injected fault", n, stepErr)
		}
		// Resume from the failure point with the fault plan removed: the
		// run must complete to the golden bytes.
		rr, err := tr.RestoreStepRun(context.Background(), inst, pt.Options{}, sr.Tree().Root, sr.Pending(), sr.StatsSoFar())
		sr.Close()
		if err != nil {
			t.Fatal(err)
		}
		res, err := rr.Run()
		rr.Close()
		if err != nil {
			t.Fatalf("N=%d resume: %v", n, err)
		}
		if got := canonicalOf(t, tr, res); got != want {
			t.Errorf("N=%d: resume after fault differs from golden", n)
		}
	}
}

// TestStepRunBudgetTyped: budgets surface as *runctl.ErrBudget with the
// observed count filled in.
func TestStepRunBudgetTyped(t *testing.T) {
	tr := families.UnfoldTransducer()
	inst := families.DiamondChain(8)
	sr, err := tr.NewStepRun(context.Background(), inst, pt.Options{MaxNodes: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	_, err = sr.Run()
	var be *runctl.ErrBudget
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want *runctl.ErrBudget", err)
	}
	if be.Kind != runctl.BudgetNodes || be.Observed <= be.Limit {
		t.Fatalf("budget = %+v, want nodes kind with observed > limit", be)
	}
	if sr.Done() || len(sr.Pending()) == 0 {
		t.Fatal("budget failure must leave a resumable frontier")
	}
}

// TestDriversCountQueriesAlike: RunContext and StepRun expand through
// the same rule step, so an OpQuery fault or a query budget at every n
// up to the run's uncached query count stops both after the same
// number of charged queries. The sweep is quadratic in that count, so
// under the race detector it samples every stride-th n.
func TestDriversCountQueriesAlike(t *testing.T) {
	tr := families.UnfoldTransducer()
	inst := families.DiamondChain(6)
	full, err := tr.Run(inst, pt.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := full.Stats.QueriesRun
	if total == 0 {
		t.Fatal("run evaluated no queries")
	}
	boom := errors.New("injected")
	stepRun := func(opts pt.Options) error {
		sr, err := tr.NewStepRun(context.Background(), inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer sr.Close()
		_, err = sr.Run()
		return err
	}
	stride := 1
	if pt.RaceEnabled {
		stride = total/50 + 1
	}
	for n := 1; n <= total; n += stride {
		if n+stride > total {
			n = total // always check the exact-budget edge
		}
		var observed [2]int64
		for i, drive := range []func(pt.Options) error{
			func(o pt.Options) error { _, err := tr.Run(inst, o); return err },
			stepRun,
		} {
			plan := &runctl.FaultPlan{Op: runctl.OpQuery, N: int64(n), Err: boom}
			if err := drive(pt.Options{Workers: 1, Cache: pt.CacheOff, Faults: plan}); !errors.Is(err, boom) {
				t.Fatalf("n=%d driver %d: fault did not stop the run: %v", n, i, err)
			}
			observed[i] = plan.Observed()
		}
		if observed[0] != observed[1] {
			t.Fatalf("n=%d: OpQuery observed Run %d, StepRun %d", n, observed[0], observed[1])
		}

		budget := pt.Options{Workers: 1, Limits: &runctl.Limits{MaxQueries: n}}
		_, runErr := tr.Run(inst, budget)
		stepErr := stepRun(budget)
		if n == total {
			if runErr != nil || stepErr != nil {
				t.Fatalf("budget of exactly %d queries: Run %v, StepRun %v", n, runErr, stepErr)
			}
			continue
		}
		var rb, sb *runctl.ErrBudget
		if !errors.As(runErr, &rb) || !errors.As(stepErr, &sb) {
			t.Fatalf("n=%d: want *runctl.ErrBudget from both, got Run %v, StepRun %v", n, runErr, stepErr)
		}
		if rb.Kind != runctl.BudgetQueries || rb.Observed != sb.Observed {
			t.Fatalf("n=%d: Run budget %+v, StepRun budget %+v", n, rb, sb)
		}
	}
}

// TestRestoreValidation: malformed frontiers are rejected with typed
// messages instead of corrupting a run.
func TestRestoreValidation(t *testing.T) {
	tr := registrar.Tau1()
	inst := registrar.SampleInstance()
	sr, err := tr.NewStepRun(context.Background(), inst, pt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	root := sr.Tree().Root

	if _, err := tr.RestoreStepRun(context.Background(), inst, pt.Options{}, nil, nil, pt.Stats{}); err == nil {
		t.Error("nil root accepted")
	}
	if _, err := tr.RestoreStepRun(context.Background(), inst, pt.Options{}, root, []pt.PendingConfig{{Node: nil, Depth: 1}}, pt.Stats{}); err == nil {
		t.Error("nil pending node accepted")
	}
	if _, err := tr.RestoreStepRun(context.Background(), inst, pt.Options{}, root, []pt.PendingConfig{{Node: root, Depth: 0}}, pt.Stats{}); err == nil {
		t.Error("zero depth accepted")
	}
}

// TestStepRunObserver: every live node of the finished tree gets exactly
// one committed-step event carrying the state it had, and stop events
// are flagged. The observer is the bookkeeping channel incremental
// repair relies on, so completeness matters.
func TestStepRunObserver(t *testing.T) {
	for name, w := range stepWorkloads() {
		t.Run(name, func(t *testing.T) {
			sr, err := w.tr.NewStepRun(context.Background(), w.inst, pt.Options{Cache: pt.CacheQueries})
			if err != nil {
				t.Fatal(err)
			}
			defer sr.Close()
			events := make(map[interface{}]pt.StepEvent)
			stops := 0
			sr.Observe(func(ev pt.StepEvent) {
				if ev.State == "" {
					t.Fatalf("event for %s has empty state", ev.Node.Tag)
				}
				if _, dup := events[ev.Node]; dup {
					t.Fatalf("node %s observed twice", ev.Node.Tag)
				}
				events[ev.Node] = ev
				if ev.Stopped {
					stops++
				}
			})
			res, err := sr.Run()
			if err != nil {
				t.Fatal(err)
			}
			seen := 0
			var check func(n *xmltree.Node, depth int)
			check = func(n *xmltree.Node, depth int) {
				seen++
				ev, ok := events[n]
				if !ok {
					t.Fatalf("tree node %s has no event", n.Tag)
				}
				if ev.Depth != depth {
					t.Fatalf("node %s: event depth %d, walk depth %d", n.Tag, ev.Depth, depth)
				}
				for _, c := range n.Children {
					check(c, depth+1)
				}
			}
			check(res.Xi.Root, 1)
			if seen != len(events) {
				t.Fatalf("%d events for %d tree nodes", len(events), seen)
			}
			if stops != res.Stats.StopsApplied {
				t.Fatalf("observed %d stops, stats say %d", stops, res.Stats.StopsApplied)
			}
		})
	}
}

// TestRestoredSeedStopsOnBaseAncestor: a restored entry's ancestors
// arrive as an explicit list, not on the driver's path. An entry whose
// list holds its own configuration stops at once; the same entry
// restored without it expands.
func TestRestoredSeedStopsOnBaseAncestor(t *testing.T) {
	tr, inst := registrar.Tau1(), registrar.SampleInstance()
	restored := func(withSelf bool) (*pt.StepRun, *xmltree.Node) {
		t.Helper()
		sr, err := tr.NewStepRun(context.Background(), inst, pt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer sr.Close()
		if _, err := sr.Step(); err != nil { // expand the root
			t.Fatal(err)
		}
		pending := sr.Pending()
		p := pending[len(pending)-1] // the next entry to step
		if withSelf {
			p.Ancestors = append(p.Ancestors, pt.NewConfig(p.Node.State, p.Node.Tag, p.Node.Reg))
		}
		rs, err := tr.RestoreStepRun(context.Background(), inst, pt.Options{}, sr.Tree().Root, []pt.PendingConfig{p}, sr.StatsSoFar())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rs.Step(); err != nil {
			t.Fatal(err)
		}
		return rs, p.Node
	}

	rs, n := restored(false)
	defer rs.Close()
	if len(n.Children) == 0 || rs.StatsSoFar().StopsApplied != 0 {
		t.Fatalf("control: entry (%s) got %d children and %d stops, want children and no stop",
			n.Tag, len(n.Children), rs.StatsSoFar().StopsApplied)
	}
	rs, n = restored(true)
	defer rs.Close()
	if len(n.Children) != 0 || rs.StatsSoFar().StopsApplied != 1 || !rs.Done() {
		t.Fatalf("entry (%s) with its own key among its ancestors: %d children, %d stops, done %v; want a stop",
			n.Tag, len(n.Children), rs.StatsSoFar().StopsApplied, rs.Done())
	}
}
