// BenchmarkIncrementalDelta quantifies the point of the incr package:
// a 1-tuple delta repaired in place runs far fewer rule queries than
// the full rebuild every publish costs today. The companion guard test
// pins the acceptance ratio (>=10x) so a regression fails CI rather
// than just drifting a chart.
package incr_test

import (
	"context"
	"testing"

	"ptx/internal/families"
	"ptx/internal/incr"
	"ptx/internal/pt"
	"ptx/internal/relation"
)

// deltaWorkload is one benchmark scenario: a (transducer, instance)
// pair plus the 1-tuple toggle applied on odd/even iterations so the
// database returns to its base state every two deltas.
type deltaWorkload struct {
	name string
	tr   *pt.Transducer
	inst *relation.Instance
	ins  *relation.Delta // applied on even iterations
	del  *relation.Delta // applied on odd iterations (the inverse)
}

func deltaWorkloads() []deltaWorkload {
	// diamond-10: the Proposition 1(3) blowup family. Every rule reads
	// R, so a 1-tuple R delta dirties 100% of rules and the repair
	// re-derives every node's children — the memo still collapses that
	// to one query per distinct configuration, versus one query per NODE
	// for the uncached rebuild.
	d10 := deltaWorkload{
		name: "diamond-10",
		tr:   families.UnfoldTransducer(),
		inst: families.DiamondChain(10),
		ins:  (&relation.Delta{}).Insert("R", "a000", "w_bench"),
		del:  (&relation.Delta{}).Delete("R", "a000", "w_bench"),
	}
	// catalog-wide: 120 products. A 1-tuple product delta dirties only
	// the root rule; every untouched product subtree is reused by
	// reference, so repair costs O(new subtree), not O(catalog).
	cat := deltaWorkload{
		name: "catalog-wide",
		tr:   catalogTransducer(),
		inst: catalogInstance(120, 2),
		ins:  (&relation.Delta{}).Insert("product", "skuNEW", "Item NEW", "cat000"),
		del:  (&relation.Delta{}).Delete("product", "skuNEW", "Item NEW", "cat000"),
	}
	return []deltaWorkload{d10, cat}
}

// fullRebuildQueries is the baseline: what one publish costs without a
// live view (CacheOff — no cross-publish state survives today).
func fullRebuildQueries(tb testing.TB, w deltaWorkload) int {
	tb.Helper()
	inst := w.inst.Clone()
	if _, err := inst.Apply(w.ins); err != nil {
		tb.Fatal(err)
	}
	res, err := w.tr.Run(inst, pt.Options{Cache: pt.CacheOff})
	if err != nil {
		tb.Fatal(err)
	}
	return res.Stats.QueriesRun
}

// incrToggle drives n alternating insert/delete deltas through a fresh
// view and returns total queries run and the worst single delta.
func incrToggle(tb testing.TB, w deltaWorkload, n int) (total, worst int) {
	tb.Helper()
	v, err := incr.NewView(context.Background(), w.tr, w.inst.Clone(), incr.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		d := w.ins
		if i%2 == 1 {
			d = w.del
		}
		rep, err := v.Apply(context.Background(), d)
		if err != nil {
			tb.Fatalf("delta %d: %v", i, err)
		}
		total += rep.QueriesRun
		if rep.QueriesRun > worst {
			worst = rep.QueriesRun
		}
	}
	return total, worst
}

func BenchmarkIncrementalDelta(b *testing.B) {
	for _, w := range deltaWorkloads() {
		b.Run(w.name, func(b *testing.B) {
			base := fullRebuildQueries(b, w)
			b.ResetTimer()
			total, worst := incrToggle(b, w, b.N)
			b.ReportMetric(float64(total)/float64(b.N), "queries/delta")
			b.ReportMetric(float64(worst), "worst-queries/delta")
			b.ReportMetric(float64(base), "rebuild-queries")
			if worst > 0 {
				b.ReportMetric(float64(base)/float64(worst), "speedup-x")
			}
		})
	}
}

// TestIncrementalQueryAdvantage pins the acceptance criterion: on both
// benchmark workloads, the WORST 1-tuple delta runs at least 10x fewer
// queries than the uncached full rebuild it replaces.
func TestIncrementalQueryAdvantage(t *testing.T) {
	for _, w := range deltaWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			base := fullRebuildQueries(t, w)
			_, worst := incrToggle(t, w, 8)
			t.Logf("%s: rebuild=%d queries, worst incr delta=%d", w.name, base, worst)
			if worst*10 > base {
				t.Fatalf("incremental advantage below 10x: worst delta %d queries vs rebuild %d", worst, base)
			}
		})
	}
}
