// Shared-memo tests: Options.Memo lets concurrent and sequential runs
// over one (transducer, instance) pair reuse a single query memo. The
// invariants are the cache-equivalence ones — byte-identical output and
// identical logical statistics — plus the sharing actually paying off
// (the second run is all hits) and faulted runs not poisoning the table.
package pt_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"ptx/internal/eval"
	"ptx/internal/families"
	"ptx/internal/logic"
	"ptx/internal/pt"
	"ptx/internal/relation"
	"ptx/internal/runctl"
)

// renderXi canonically serializes a run's raw tree.
func renderXi(t *testing.T, res *pt.Result, tr *pt.Transducer) string {
	t.Helper()
	var sb strings.Builder
	if err := res.Xi.WriteCanonicalVirtual(&sb, tr.Virtual); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return sb.String()
}

func TestSharedMemoSequential(t *testing.T) {
	tr := families.UnfoldTransducer()
	inst := families.DiamondChain(6)

	baseline, err := tr.Run(inst, pt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := renderXi(t, baseline, tr)

	memo := eval.NewMemo(0)
	first, err := tr.Run(inst, pt.Options{Cache: pt.CacheQueries, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderXi(t, first, tr); got != want {
		t.Fatal("first shared-memo run diverged from the cache-off baseline")
	}
	second, err := tr.Run(inst, pt.Options{Cache: pt.CacheQueries, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderXi(t, second, tr); got != want {
		t.Fatal("second shared-memo run diverged from the cache-off baseline")
	}
	if second.Stats.QueriesRun != 0 {
		t.Errorf("warm shared memo should answer every query: %d evaluated", second.Stats.QueriesRun)
	}
	if second.Stats.Nodes != baseline.Stats.Nodes || second.Stats.MaxDepth != baseline.Stats.MaxDepth {
		t.Errorf("logical stats drifted: %+v vs %+v", second.Stats, baseline.Stats)
	}
}

// TestSharedMemoConcurrent runs many goroutines against one memo, some
// of them fault-injected, and checks that every successful run matches
// the baseline bytes — i.e. failed evaluations never poisoned the
// shared table (the Memo contract) even under concurrency.
func TestSharedMemoConcurrent(t *testing.T) {
	tr := families.UnfoldTransducer()
	inst := families.DiamondChain(5)

	baseline, err := tr.Run(inst, pt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := renderXi(t, baseline, tr)

	memo := eval.NewMemo(0)
	const runs = 12
	outs := make([]string, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := pt.Options{Cache: pt.CacheQueries, Memo: memo}
			if i%3 == 0 {
				// Every third run fails its 2nd evaluated query; memo hits
				// skip the fault checkpoint, so late runs may see no fault
				// at all — both outcomes are fine, poisoning is not.
				opts.Faults = &runctl.FaultPlan{Op: runctl.OpQuery, N: 2,
					Err: runctl.Transient(errFault)}
			}
			res, err := tr.Run(inst, opts)
			if err != nil {
				errs[i] = err
				return
			}
			var sb strings.Builder
			if err := res.Xi.WriteCanonicalVirtual(&sb, tr.Virtual); err != nil {
				errs[i] = err
				return
			}
			outs[i] = sb.String()
		}(i)
	}
	wg.Wait()

	succeeded := 0
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			if !runctl.IsTransient(errs[i]) {
				t.Errorf("run %d: unexpected error class: %v", i, errs[i])
			}
			continue
		}
		succeeded++
		if outs[i] != want {
			t.Errorf("run %d: output diverged from baseline under the shared memo", i)
		}
	}
	if succeeded == 0 {
		t.Fatal("no run succeeded; the fixture is miscalibrated")
	}
}

// TestMemoErrorNotCached: a run that fails mid-step (here its second
// root query exhausts the fixpoint budget) leaves the step's earlier,
// successful result in the shared memo and nothing for the failed
// query, so an unlimited run over the same memo evaluates exactly that
// query and matches a fresh run.
func TestMemoErrorNotCached(t *testing.T) {
	x, y, w := logic.Var("x"), logic.Var("y"), logic.Var("w")
	s := relation.NewSchema().MustDeclare("E", 2)
	tr := pt.New("tc", s, "q0", "r")
	tr.DeclareTag("a", 2)
	tr.DeclareTag("b", 2)
	tc := &logic.Fixpoint{
		Rel:  "S",
		Vars: []logic.Var{x, y},
		Body: logic.Disj(
			logic.R("E", x, y),
			logic.Ex([]logic.Var{w}, logic.Conj(logic.R("S", x, w), logic.R("E", w, y))),
		),
		Args: []logic.Term{x, y},
	}
	tr.AddRule("q0", "r",
		pt.Item("q", "a", logic.MustQuery([]logic.Var{x}, []logic.Var{y}, logic.R("E", x, y))),
		pt.Item("q", "b", logic.MustQuery(nil, []logic.Var{x, y}, tc)))
	tr.AddRule("q", "a")
	tr.AddRule("q", "b")
	inst := relation.NewInstance(s)
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "e"}, {"e", "f"}, {"f", "g"}} {
		inst.Add("E", e[0], e[1])
	}

	fresh, err := tr.Run(inst, pt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	memo := eval.NewMemo(0)
	_, err = tr.Run(inst, pt.Options{Cache: pt.CacheQueries, Memo: memo,
		Limits: &runctl.Limits{MaxFixpointIters: 2}})
	var be *runctl.ErrBudget
	if !errors.As(err, &be) {
		t.Fatalf("capped run: got %v, want a budget error", err)
	}
	if hits, misses, _ := memo.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("capped run: stats = %d/%d, want 0 hits, 2 misses", hits, misses)
	}

	got, err := tr.Run(inst, pt.Options{Cache: pt.CacheQueries, Memo: memo})
	if err != nil {
		t.Fatalf("unlimited run after the failed one: %v", err)
	}
	if renderXi(t, got, tr) != renderXi(t, fresh, tr) {
		t.Fatal("run after the failed one differs from a fresh run")
	}
	// The E query hit; the fixpoint query, which stored nothing when it
	// failed, was evaluated.
	if got.Stats.QueriesRun != 1 || got.Stats.CacheHits != 1 {
		t.Errorf("unlimited run: %d queries, %d hits; want 1 and 1",
			got.Stats.QueriesRun, got.Stats.CacheHits)
	}
	again, err := tr.Run(inst, pt.Options{Cache: pt.CacheQueries, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.QueriesRun != 0 {
		t.Errorf("the successful result was not stored: %d queries evaluated", again.Stats.QueriesRun)
	}
}

var errFault = errShared("shared-memo injected fault")

type errShared string

func (e errShared) Error() string { return string(e) }
