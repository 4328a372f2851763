package main

import (
	"math"
)

// layerRow is one per-layer metric: its module, unit, and the
// end-to-end metric and workload it should move.
type layerRow struct {
	layer, name, unit, moves, on string
}

// layerTable is the per-layer metric set, grouped by module. Every row
// is printed on every workload; "on" names the workload whose traffic
// the row describes (elsewhere it is measured on mirror state).
var layerTable = []layerRow{
	{"parser", "parser.db_ms", "ms", "raw_publish_p50_ms", "read-after-write"},
	{"parser", "parser.spec_ms", "ms", "setup_s", "all"},
	{"plan", "plan.compile_ms", "ms", "setup_s", "all"},
	{"plan", "plan.speedup_x", "x", "raw_publish_p50_ms, nodes_per_s", "read-after-write, library"},
	{"eval", "eval.queries_per_publish", "count", "raw_publish_p50_ms", "read-after-write"},
	{"eval", "eval.memo_hit_ratio", "ratio", "publish_p50_ms", "publish-warm"},
	{"pt", "pt.run_cold_ms", "ms", "raw_publish_p50_ms, nodes_per_s", "read-after-write, library"},
	{"pt", "pt.run_warm_ms", "ms", "publish_p50_ms", "publish-warm"},
	{"pt", "pt.nodes", "count", "nodes_per_s", "library"},
	{"pt", "pt.queries", "count", "nodes_per_s", "library"},
	{"xmltree", "xmltree.write_ms", "ms", "publish_p50_ms, nodes_per_s", "publish-warm, library"},
	{"xmltree", "xmltree.bytes", "bytes", "publish_p50_ms, nodes_per_s", "publish-warm, library"},
	{"datalog", "datalog.eval_ms", "ms", "relation_ms", "library"},
	{"incr", "incr.apply_ms", "ms", "mutate_p50_ms", "read-after-write"},
	{"incr", "incr.queries_per_delta", "count", "mutate_p50_ms", "read-after-write"},
	{"incr", "incr.full_rebuilds", "count", "mutate_p50_ms", "read-after-write"},
	{"incr", "incr.advantage_x", "x", "mutate_p90_ms", "read-after-write"},
	{"wal", "wal.append_ms", "ms", "mutate_p50_ms", "read-after-write, cluster"},
	{"wal", "wal.fsyncs_per_delta", "count", "mutate_p50_ms", "read-after-write"},
	{"wal", "wal.bytes_per_delta", "bytes", "mutate_p50_ms", "read-after-write"},
	{"serve", "serve.pair_rebuild_ms", "ms", "raw_publish_p50_ms", "read-after-write"},
	{"serve", "serve.commit_ms", "ms", "mutate_p50_ms", "read-after-write"},
	{"serve", "serve.self_ms", "ms", "publish_p50_ms", "publish-warm"},
	{"serve", "serve.deduped", "count", "publish_per_s", "publish-warm"},
	{"serve", "serve.shed", "count", "publish_per_s", "publish-warm"},
	{"cluster", "cluster.forward_ms", "ms", "publish_p50_ms", "cluster"},
	{"cluster", "cluster.mutate_overhead_ms", "ms", "mutate_p50_ms", "cluster"},
	{"cluster", "cluster.hedges", "count", "publish_p90_ms", "cluster"},
	{"cluster", "cluster.hedge_wins", "count", "publish_p90_ms", "cluster"},
	{"cluster", "cluster.failovers", "count", "publish_p90_ms, mutate_p90_ms", "cluster"},
	{"cluster", "cluster.replicated", "count", "mutate_p90_ms", "cluster"},
	{"go", "go.alloc_mb_per_op", "MiB", "heap_peak_mb, every p50", "all"},
	{"go", "go.gc_cpu_frac", "ratio", "heap_peak_mb, every p50", "all"},
	{"trace", "trace.overhead_pct", "%", "publish_p50_ms (traced minus untraced)", "all"},
}

// layerMetrics derives every per-layer row from the traced pass's spans,
// the untraced pass's counters, and the probe.
func (b *bench) layerMetrics(w *workload, un, tp *passResult, pc *probeCounts) map[string]metric {
	t, m := b.tr, b.mir
	v := map[string]float64{
		"parser.db_ms":          median(t.durations("parser.db", "")),
		"parser.spec_ms":        median(t.durations("parser.spec", "")),
		"plan.compile_ms":       median(t.durations("plan.compile", "")),
		"plan.speedup_x":        pc.speedup,
		"pt.run_cold_ms":        median(t.durations("pt.run", "cold")),
		"pt.run_warm_ms":        median(t.durations("pt.run", "warm")),
		"pt.nodes":              float64(pc.nodes),
		"pt.queries":            float64(pc.queries),
		"xmltree.write_ms":      median(t.durations("xmltree.write", "")),
		"xmltree.bytes":         float64(pc.bytes),
		"datalog.eval_ms":       median(t.durations("datalog.eval", "")),
		"incr.apply_ms":         median(t.durations("incr.apply", "")),
		"incr.full_rebuilds":    float64(m.rebuilds),
		"wal.append_ms":         median(t.durations("wal.append", "")),
		"serve.pair_rebuild_ms": median(t.durations("serve.pair", "cold")),
		"serve.commit_ms":       median(t.durations("serve.commit", "")),
	}
	v["eval.queries_per_publish"] = float64(un.rec.queries) / float64(max(un.rec.publishes, 1))
	v["eval.memo_hit_ratio"] = float64(m.hits) / float64(max(m.hits+m.misses, 1))
	v["incr.queries_per_delta"] = float64(m.viewQueries) / float64(max(m.deltas, 1))

	// incr.advantage_x: an uncached full rebuild's queries over the worst
	// single repair, for each view a delta actually dirtied; the minimum.
	adv := math.Inf(1)
	for spec, worst := range m.worst {
		if worst == 0 {
			continue
		}
		g, err := b.gold.get(spec, firstToggleDB(b, w), 0)
		if err == nil {
			adv = math.Min(adv, float64(g.queries)/float64(worst))
		}
	}
	v["incr.advantage_x"] = adv

	if _, mutates := un.rec.classQuantiles(classMutate, 0.5); mutates > 0 {
		v["wal.fsyncs_per_delta"] = float64(un.serve.Fsyncs) / float64(mutates)
		v["wal.bytes_per_delta"] = float64(un.walBytes) / float64(mutates)
	} else {
		lm := m.logB.Metrics()
		v["wal.fsyncs_per_delta"] = float64(lm.Fsyncs) / float64(max(lm.Appended, 1))
		v["wal.bytes_per_delta"] = float64(dirBytes(m.dirB)) / float64(max(lm.Appended, 1))
	}

	selfOf := classPublish
	if w.name == "library" {
		selfOf = "probe" // no server in the workload: the probe's direct publishes
	}
	v["serve.self_ms"] = median(t.selfTimes("http.publish", selfOf, "serve.pair", "pt.run", "xmltree.write"))
	v["serve.deduped"] = float64(un.serve.Deduped)
	v["serve.shed"] = float64(un.serve.Shed)

	if w.name == "cluster" {
		v["cluster.forward_ms"] = median(t.selfTimes("http.publish", "", "cluster.direct"))
		v["cluster.mutate_overhead_ms"] = median(t.selfTimes("http.mutate", "", "cluster.standalone"))
		v["cluster.hedges"] = float64(un.coord.Hedges)
		v["cluster.hedge_wins"] = float64(un.coord.HedgeWins)
		v["cluster.failovers"] = float64(un.coord.Failovers)
		v["cluster.replicated"] = float64(un.serve.Replicated)
	} else {
		v["cluster.forward_ms"] = median(pc.forward)
		v["cluster.mutate_overhead_ms"] = median(pc.overhead)
		v["cluster.hedges"] = float64(pc.hedges)
		v["cluster.hedge_wins"] = float64(pc.hedgeWins)
		v["cluster.failovers"] = float64(pc.failovers)
		v["cluster.replicated"] = float64(pc.replicated)
	}

	ops := float64(max(un.rec.attempted, 1))
	v["go.alloc_mb_per_op"] = float64(un.rt1.totalAlloc-un.rt0.totalAlloc) / (1 << 20) / ops
	if cpu := un.rt1.allC - un.rt0.allC; cpu > 0 {
		v["go.gc_cpu_frac"] = (un.rt1.gcCPU - un.rt0.gcCPU) / cpu
	}
	u50, _ := un.rec.classQuantiles(classPublish, 0.5)
	t50, _ := tp.rec.classQuantiles(classPublish, 0.5)
	v["trace.overhead_pct"] = 100 * (t50 - u50) / u50

	out := map[string]metric{}
	for _, row := range layerTable {
		out[row.name] = metric{v[row.name], row.unit}
	}
	return out
}

func firstToggleDB(b *bench, w *workload) string {
	for _, d := range w.dbs {
		if len(b.in.DBs[d].Toggles) > 0 {
			return d
		}
	}
	return ""
}
