package pt_test

import (
	"testing"

	"ptx/internal/families"
	"ptx/internal/pt"
	"ptx/internal/relation"
)

// BenchmarkCacheAblation measures the query memo against the two
// Proposition 1 blowup families:
//
//   - exp: the graph-unfolding transducer τ1 on the chain of diamonds
//     (2ⁿ leaves from O(n) edges, Proposition 1(3)) — every subtree
//     repeats, so the memo answers all but one evaluation per graph
//     vertex;
//   - 2exp: the binary-counter transducer τ2 (≥2^(2ⁿ) nodes,
//     Proposition 1(4)) — registers grow along each path, so few
//     configurations repeat.
//
// Run with -benchtime=1x for a smoke reading; queries/op is the
// interesting metric (wall clock follows it).
func BenchmarkCacheAblation(b *testing.B) {
	families2 := []struct {
		name string
		tr   *pt.Transducer
		inst *relation.Instance
	}{
		{"exp/unfold-diamond-10", families.UnfoldTransducer(), families.DiamondChain(10)},
		{"2exp/counter-2", families.CounterTransducer(), families.CounterInstance(2)},
	}
	for _, f := range families2 {
		for _, mode := range []pt.CacheMode{pt.CacheOff, pt.CacheQueries} {
			b.Run(f.name+"/cache="+mode.String(), func(b *testing.B) {
				var stats pt.Stats
				for i := 0; i < b.N; i++ {
					res, err := f.tr.Run(f.inst, pt.Options{Cache: mode})
					if err != nil {
						b.Fatal(err)
					}
					stats = res.Stats
				}
				b.ReportMetric(float64(stats.QueriesRun), "queries/op")
				b.ReportMetric(float64(stats.Nodes), "logical-nodes/op")
			})
		}
	}
}
