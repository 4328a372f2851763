// The seeded differential suite: for seeded (spec, db, delta-sequence)
// triples, incremental repair must stay byte-identical to a
// from-scratch run after EVERY step. Failures dump the replayable
// triple to CHAOS_ARTIFACT_DIR, PR-4 chaos style.
package incr_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ptx/internal/families"
	"ptx/internal/incr"
	"ptx/internal/pt"
	"ptx/internal/registrar"
	"ptx/internal/relation"
)

// diffSeeds matches the acceptance criterion batch size; the race run
// shrinks it (coverage is per-shape, not per-seed).
func diffSeeds() int {
	if raceEnabled {
		return 48
	}
	return 120
}

// caseBudget caps both the view and the oracle: a seeded delta sequence
// on the recursive families can legitimately explode the unfolding, and
// the suite's business is equivalence, not size.
const caseBudget = 50_000

// Every tightEvery-th seed caps both sides instead at tightSlack nodes
// over its initial tree, so growing deltas reach the bound: there a
// repair must fail exactly when a run over the same instance does.
const (
	tightEvery = 3
	tightSlack = 3
)

// incrCase is one seeded scenario, derived entirely from its seed.
type incrCase struct {
	Seed     int64
	Workload string
	Tight    bool // budget tightSlack nodes over the initial tree, not caseBudget
	Steps    []*relation.Delta
}

func (c incrCase) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "seed=%d workload=%s tight=%v\n", c.Seed, c.Workload, c.Tight)
	for i, d := range c.Steps {
		fmt.Fprintf(&sb, "step %d: %s\n", i, d)
	}
	return sb.String()
}

// workloadFor returns the transducer and base instance for a case.
func workloadFor(name string) (*pt.Transducer, *relation.Instance) {
	switch name {
	case "tau1":
		return registrar.Tau1(), registrar.SampleInstance()
	case "tau3":
		return registrar.Tau3(), registrar.SampleInstance()
	case "catalog":
		return catalogTransducer(), catalogInstance(12, 2)
	case "unfold":
		return families.UnfoldTransducer(), families.DiamondChain(3)
	case "counter":
		return families.CounterTransducer(), families.CounterInstance(2)
	default:
		panic("unknown workload " + name)
	}
}

// valuePool is the sampling space for delta tuples: existing values
// keep deletions and joining inserts likely, a few fresh tokens grow
// the domain without densifying recursive unfoldings into a blowup.
func valuePool(inst *relation.Instance) []string {
	vs := inst.ActiveDomain()
	pool := make([]string, 0, len(vs)+3)
	for _, v := range vs {
		pool = append(pool, string(v))
	}
	return append(pool, "w1", "w2", "w3")
}

func newIncrCase(seed int64) incrCase {
	rng := rand.New(rand.NewSource(seed))
	c := incrCase{
		Seed:     seed,
		Workload: []string{"tau1", "tau3", "catalog", "unfold", "counter"}[rng.Intn(5)],
		Tight:    seed%tightEvery == 0,
	}
	rng.Intn(2) // this draw chose a repair policy once; kept so each seed keeps its deltas
	_, inst := workloadFor(c.Workload)
	pool := valuePool(inst)
	names := inst.Schema().Names()
	steps := 2 + rng.Intn(5)
	for s := 0; s < steps; s++ {
		d := &relation.Delta{}
		for o, ops := 0, 1+rng.Intn(3); o < ops; o++ {
			rel := names[rng.Intn(len(names))]
			arity, _ := inst.Schema().Arity(rel)
			switch {
			case rng.Intn(2) == 0: // delete, usually of an existing tuple
				if ts := inst.Rel(rel).Tuples(); len(ts) > 0 && rng.Intn(4) > 0 {
					d.DeleteTuple(rel, ts[rng.Intn(len(ts))])
					continue
				}
				fallthrough
			default:
				vals := make([]string, arity)
				for i := range vals {
					vals[i] = pool[rng.Intn(len(pool))]
				}
				if rng.Intn(2) == 0 {
					d.Insert(rel, vals...)
				} else {
					d.Delete(rel, vals...)
				}
			}
		}
		// Track the evolving instance so later deletions can target
		// tuples inserted by earlier steps.
		if _, err := inst.Apply(d); err != nil {
			panic(err)
		}
		c.Steps = append(c.Steps, d)
	}
	return c
}

func dumpIncrArtifact(t *testing.T, c incrCase, violation string) {
	t.Helper()
	dir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifact dir: %v", err)
		return
	}
	_, base := workloadFor(c.Workload)
	desc := fmt.Sprintf("%s\nbase instance:\n%s\nviolation=%s\n", c, base, violation)
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("incr-%d.txt", c.Seed)), []byte(desc), 0o644); err != nil {
		t.Logf("artifact write: %v", err)
	}
}

// runIncrCase drives one seeded scenario; it returns a violation
// description or "" when the case holds, and whether the case ended
// because both sides outgrew the budget.
func runIncrCase(t *testing.T, c incrCase) (outgrew bool, violation string) {
	tr, oracle := workloadFor(c.Workload)
	budget := caseBudget
	if c.Tight {
		base, err := tr.Run(oracle, pt.Options{MaxNodes: caseBudget})
		if err != nil {
			return false, fmt.Sprintf("initial run: %v", err)
		}
		budget = base.Stats.Nodes + tightSlack
	}
	v, err := incr.NewView(context.Background(), tr, oracle.Clone(), incr.Options{Run: pt.Options{MaxNodes: budget}})
	if err != nil {
		return false, fmt.Sprintf("initial build: %v", err)
	}
	for i, d := range c.Steps {
		_, applyErr := v.Apply(context.Background(), d)
		if _, err := oracle.Apply(d); err != nil {
			return false, fmt.Sprintf("step %d: oracle apply: %v", i, err)
		}
		ores, oerr := tr.Run(oracle, pt.Options{MaxNodes: budget, Cache: pt.CacheQueries})
		if applyErr != nil {
			// A budget-killed repair is legitimate only if the scenario
			// actually outgrew the budget — which the oracle confirms —
			// and the view must KNOW it is broken, not serve stale bytes.
			if oerr == nil {
				return false, fmt.Sprintf("step %d: view failed (%v) but oracle ran fine", i, applyErr)
			}
			if _, _, serr := v.Snapshot(true); serr == nil {
				return false, fmt.Sprintf("step %d: broken view served a snapshot", i)
			}
			return true, "" // both sides outgrew the budget: case ends here
		}
		if oerr != nil {
			// A repaired tree is bounded as a run's is.
			return false, fmt.Sprintf("step %d: oracle failed (%v) but the view repaired", i, oerr)
		}
		var sb strings.Builder
		if err := ores.Xi.WriteCanonicalVirtual(&sb, tr.Virtual); err != nil {
			return false, fmt.Sprintf("step %d: oracle serialize: %v", i, err)
		}
		got, _, err := v.Snapshot(true)
		if err != nil {
			return false, fmt.Sprintf("step %d: snapshot: %v", i, err)
		}
		if string(got) != sb.String() {
			return false, fmt.Sprintf("step %d (%s): view != rebuild\nview:    %s\nrebuild: %s", i, d, got, sb.String())
		}
		if nodes := v.Stats().Nodes; nodes != ores.Stats.Nodes {
			return false, fmt.Sprintf("step %d: meta tracks %d nodes, oracle tree has %d", i, nodes, ores.Stats.Nodes)
		}
	}
	return false, ""
}

func TestIncrementalDifferential(t *testing.T) {
	ran, outgrew := 0, 0
	for seed := int64(1); seed <= int64(diffSeeds()); seed++ {
		c := newIncrCase(seed)
		t.Run(fmt.Sprintf("seed-%d-%s", seed, c.Workload), func(t *testing.T) {
			ran++
			out, v := runIncrCase(t, c)
			if v != "" {
				dumpIncrArtifact(t, c, v)
				t.Fatalf("differential violation:\n%s\n%s", c, v)
			}
			if out {
				outgrew++
			}
		})
	}
	t.Logf("%d of %d seeds ended when both sides outgrew the budget, %d ran every step", outgrew, ran, ran-outgrew)
	if ran == diffSeeds() && outgrew == 0 {
		t.Error("no seed reached its node budget: the broken-view branch never ran")
	}
}
