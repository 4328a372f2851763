package main

import (
	"testing"
)

// countRows are the per-layer rows that count work rather than time it.
// For a given seed they must repeat exactly, so a change can cite one by
// name.
var countRows = []string{
	"eval.queries_per_publish",
	"pt.nodes",
	"pt.queries",
	"xmltree.bytes",
	"incr.queries_per_delta",
	"wal.fsyncs_per_delta",
	"cluster.replicated",
}

func TestTracedCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			first, second := tracedRun(t, w), tracedRun(t, w)
			for _, name := range countRows {
				a, ok := first[name]
				if !ok {
					t.Fatalf("row %s missing", name)
				}
				if b := second[name]; a != b {
					t.Errorf("%s: %v then %v", name, a.Value, b.Value)
				}
			}
		})
	}
}

// tracedRun is one short traced run of w on a fixed seed.
func tracedRun(t *testing.T, w *workload) map[string]metric {
	t.Helper()
	in := generate(5)
	b := &bench{in: in, gold: newGoldens(in), seconds: 0.2, workdir: t.TempDir()}
	rep, err := b.execute(w, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.result.Correct {
		t.Fatalf("traced run failed %d of %d operations", rep.result.Failed, rep.result.Attempted)
	}
	return rep.result.Metrics
}
