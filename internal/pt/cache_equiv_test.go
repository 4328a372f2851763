// Cache-equivalence acceptance tests: every cache mode must produce
// byte-identical output and identical tree statistics on every family,
// with and without injected faults. These live in the external test package so they can drive the
// real paper families from internal/families.
package pt_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ptx/internal/eval"
	"ptx/internal/families"
	"ptx/internal/parser"
	"ptx/internal/pt"
	"ptx/internal/relation"
	"ptx/internal/runctl"
)

var allModes = []pt.CacheMode{pt.CacheOff, pt.CacheQueries}

// fixture is one (transducer, instance) workload for the equivalence
// suite.
type fixture struct {
	name string
	tr   *pt.Transducer
	inst *relation.Instance
}

func familyFixtures() []fixture {
	via := relation.NewInstance(families.ViaSchema())
	via.Add("E", "c1", "x")
	via.Add("E", "x", "c2")
	via.Add("E", "c2", "y")
	via.Add("E", "y", "c3")

	pc := relation.NewInstance(families.PathCountSchema())
	pc.Add("S", "s")
	pc.Add("T", "t")
	pc.Add("R", "s", "m1")
	pc.Add("R", "s", "m2")
	pc.Add("R", "m1", "t")
	pc.Add("R", "m2", "t")

	return []fixture{
		{"unfold-diamond-6", families.UnfoldTransducer(), families.DiamondChain(6)},
		{"counter-2", families.CounterTransducer(), families.CounterInstance(2)},
		{"via-chain", families.ViaTransducer(), via},
		{"pathcount-virtual", families.PathCountTransducer(), pc},
	}
}

// output runs the transducer and returns the rendered XML plus stats.
func output(t *testing.T, f fixture, opts pt.Options) (string, pt.Stats) {
	t.Helper()
	if opts.Limits == nil {
		opts.Limits = &runctl.Limits{Timeout: 2 * time.Minute}
	}
	res, err := f.tr.Run(f.inst, opts)
	if err != nil {
		t.Fatalf("%s %v: %v", f.name, opts.Cache, err)
	}
	out := res.Xi.Clone().Strip()
	out.SpliceVirtual(f.tr.Virtual)
	return out.XML(), res.Stats
}

// TestCacheEquivalenceFamilies is the core soundness suite: for every
// family, every cache mode produces byte-identical XML and identical
// tree statistics.
func TestCacheEquivalenceFamilies(t *testing.T) {
	for _, f := range familyFixtures() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			base, baseStats := output(t, f, pt.Options{})
			for _, mode := range allModes {
				got, stats := output(t, f, pt.Options{Cache: mode})
				if got != base {
					t.Errorf("cache=%v: output differs from cache-off baseline", mode)
				}
				if stats.Nodes != baseStats.Nodes || stats.MaxDepth != baseStats.MaxDepth ||
					stats.StopsApplied != baseStats.StopsApplied {
					t.Errorf("cache=%v: logical stats differ: got %+v want %+v",
						mode, stats, baseStats)
				}
				if mode != pt.CacheOff && stats.QueriesRun > baseStats.QueriesRun {
					t.Errorf("cache=%v: ran MORE queries (%d) than cache-off (%d)",
						mode, stats.QueriesRun, baseStats.QueriesRun)
				}
			}
		})
	}
}

// TestCacheEquivalenceSpecs runs every checked-in example spec through
// all cache modes and demands byte-identical XML.
func TestCacheEquivalenceSpecs(t *testing.T) {
	for _, f := range specFixtures(t) {
		f := f
		t.Run(f.name, func(t *testing.T) {
			base, _ := output(t, f, pt.Options{})
			for _, mode := range allModes[1:] {
				if got, _ := output(t, f, pt.Options{Cache: mode}); got != base {
					t.Errorf("cache=%v: output differs from baseline", mode)
				}
			}
		})
	}
}

// TestCacheFaultDoesNotPoison injects deterministic query faults into
// cached runs: the faulted run must fail with the injected error as root
// cause, and a fresh cached run afterwards must still produce the
// baseline output — a partial failure never leaves poisoned state
// behind (caches are per-run, and failed evaluations are never stored).
func TestCacheFaultDoesNotPoison(t *testing.T) {
	tr := families.UnfoldTransducer()
	inst := families.DiamondChain(6)
	f := fixture{name: "unfold-diamond-6", tr: tr, inst: inst}
	base, _ := output(t, f, pt.Options{})

	for _, mode := range allModes[1:] {
		// Cached runs of diamond(6) evaluate ~19 distinct queries, so
		// fault positions up to 12 are guaranteed to fire in every mode.
		for _, n := range []int64{1, 5, 12} {
			boom := errors.New("injected query fault")
			plan := &runctl.FaultPlan{Op: runctl.OpQuery, N: n, Err: boom}
			_, err := tr.Run(inst, pt.Options{Cache: mode, Faults: plan})
			if !errors.Is(err, boom) {
				t.Fatalf("cache=%v fault@%d: got %v, want injected fault", mode, n, err)
			}
			if got, _ := output(t, f, pt.Options{Cache: mode}); got != base {
				t.Errorf("cache=%v: clean rerun after fault@%d differs from baseline", mode, n)
			}
		}
	}
}

// TestCacheBudgetEquivalence: a node budget must abort the run with the
// same typed error in every cache mode.
func TestCacheBudgetEquivalence(t *testing.T) {
	tr := families.CounterTransducer()
	inst := families.CounterInstance(2)
	for _, mode := range allModes {
		res, err := tr.Run(inst, pt.Options{Cache: mode, MaxNodes: 100})
		var be *pt.ErrBudget
		if !errors.As(err, &be) || be.Kind != runctl.BudgetNodes {
			t.Fatalf("cache=%v: got (%v, %v), want nodes-budget error", mode, res, err)
		}
	}
}

// TestCacheTinyCapacityStillCorrect forces heavy eviction (capacity 2)
// and checks the output is still byte-identical: the query memo is a
// pure optimization, never load-bearing.
func TestCacheTinyCapacityStillCorrect(t *testing.T) {
	tr := families.UnfoldTransducer()
	inst := families.DiamondChain(8)
	f := fixture{name: "unfold-diamond-8", tr: tr, inst: inst}
	base, _ := output(t, f, pt.Options{})
	for _, mode := range allModes[1:] {
		got, stats := output(t, f, pt.Options{Cache: mode, CacheSize: 2})
		if got != base {
			t.Errorf("cache=%v size=2: output differs from baseline", mode)
		}
		if stats.CacheEvictions == 0 {
			t.Errorf("cache=%v size=2: expected evictions, got stats %+v", mode, stats)
		}
	}
}

// specFixtures loads every checked-in example spec over registrar.db.
func specFixtures(t *testing.T) []fixture {
	t.Helper()
	dir := filepath.Join("..", "..", "examples", "specs")
	specs, err := filepath.Glob(filepath.Join(dir, "*.pt"))
	if err != nil || len(specs) == 0 {
		t.Skipf("no example specs found in %s", dir)
	}
	data, err := os.ReadFile(filepath.Join(dir, "registrar.db"))
	if err != nil {
		t.Skipf("no registrar.db: %v", err)
	}
	var out []fixture
	for _, path := range specs {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := parser.ParseTransducer(string(src))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := parser.ParseInstance(string(data), tr.Schema)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fixture{name: filepath.Base(path), tr: tr, inst: inst})
	}
	return out
}

// TestCacheEquivalenceWarmMemo is the warm arm: the second of two runs
// sharing one query memo answers every rule query from it, so every
// child register comes from a cached grouping shared with the first
// run's tree. It must still match the cache-off baseline exactly.
func TestCacheEquivalenceWarmMemo(t *testing.T) {
	for _, f := range append(familyFixtures(), specFixtures(t)...) {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			base, baseStats := output(t, f, pt.Options{})
			memo := eval.NewMemo(0)
			opts := pt.Options{Cache: pt.CacheQueries, Memo: memo}
			output(t, f, opts)
			got, stats := output(t, f, opts)
			if got != base {
				t.Errorf("warm: output differs from cache-off baseline")
			}
			if stats.Nodes != baseStats.Nodes || stats.MaxDepth != baseStats.MaxDepth ||
				stats.StopsApplied != baseStats.StopsApplied {
				t.Errorf("warm: logical stats differ: got %+v want %+v", stats, baseStats)
			}
			if stats.QueriesRun != 0 {
				t.Errorf("warm: %d queries evaluated, want 0", stats.QueriesRun)
			}
		})
	}
}

// siblingSpec reaches one configuration X = (q, x, {(t)}) under each of
// two sibling subtrees. X descends (it branches into y and z), so the
// first sibling pushes it onto the ancestor path; the path must pop it
// again, or the second sibling would wrongly stop on a configuration
// that is not its ancestor. The a-nodes reach X by a single-child chain
// step, X itself is a branching node: both push paths are exercised.
const siblingSpec = `
schema S/1, T/1
transducer sib root r start q0
tag a/1, x/1, y/1, z/1
rule q0 r -> (q, a, [v;] S(v))
rule q a -> (q, x, [u;] T(u))
rule q x -> (q, y, [u;] Reg(u)), (q, z, [u;] Reg(u))
`

// TestSiblingsReachSameConfiguration: both siblings expand X in full,
// in every cache mode, cold and warm, and StepRun agrees.
func TestSiblingsReachSameConfiguration(t *testing.T) {
	tr, err := parser.ParseTransducer(siblingSpec)
	if err != nil {
		t.Fatal(err)
	}
	inst := relation.NewInstance(tr.Schema)
	inst.Add("S", "s1")
	inst.Add("S", "s2")
	inst.Add("T", "t")
	f := fixture{name: "siblings", tr: tr, inst: inst}

	base, baseStats := output(t, f, pt.Options{})
	// r, two a, two x, and y and z under each x.
	if baseStats.Nodes != 9 || baseStats.StopsApplied != 0 || strings.Count(base, "<y") != 2 {
		t.Fatalf("cache-off run stopped on a sibling's configuration: %+v\n%s", baseStats, base)
	}
	sr, err := tr.NewStepRun(context.Background(), inst, pt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sr.Run()
	if err != nil {
		t.Fatal(err)
	}
	step := res.Xi.Clone().Strip()
	step.SpliceVirtual(tr.Virtual)
	if step.XML() != base || res.Stats.Nodes != baseStats.Nodes || res.Stats.StopsApplied != 0 {
		t.Fatalf("StepRun disagrees with Run: %+v\n%s\nwant\n%s", res.Stats, step.XML(), base)
	}

	for _, mode := range allModes {
		opts := pt.Options{Cache: mode}
		if mode != pt.CacheOff {
			opts.Memo = eval.NewMemo(0)
		}
		for _, pass := range []string{"cold", "warm"} {
			got, stats := output(t, f, opts)
			if got != base || stats.Nodes != baseStats.Nodes || stats.StopsApplied != 0 {
				t.Errorf("cache=%v %s: got %+v\n%s\nwant\n%s",
					mode, pass, stats, got, base)
			}
		}
	}
}
