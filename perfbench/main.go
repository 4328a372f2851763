// Command perfbench is ptx's benchmark: one seeded command that drives a
// named workload against the library or an in-process serving tier,
// checks every response against an independent reference, and prints
// end-to-end metrics (untraced) or per-layer metrics (traced). See
// README.md for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"ptx/internal/cluster"
	"ptx/internal/serve"
)

// setupReps is how many times a run builds its system under test;
// setup_s is the median, scaled to the nominal host by the host's speed
// over calibration slots run right after each set-up.
const setupReps = 9

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: library, publish-warm, read-after-write or cluster")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per pass (count-sized workloads scale their op count with it)")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and tracing overhead")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory for logs and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	in := generate(*seed)
	b := &bench{in: in, gold: newGoldens(in), seconds: *seconds, workdir: tmp}
	res, err := b.execute(w, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, line := range res.text {
		fmt.Fprintln(stdout, line)
	}
	out, err := json.Marshal(res.result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.result.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type report struct {
	text   []string
	result result
}

// passResult is one measured pass and its surroundings.
type passResult struct {
	rec      *recorder
	setups   []float64 // seconds per set-up, in order
	setupS   float64   // their median on the nominal host
	heapMB   float64
	rt0, rt1 runtimeSnap
	speed    float64         // host speed on the calibration kernels, 1 = nominal
	serve    serve.Metrics   // deltas over the pass, summed over nodes
	coord    cluster.Metrics // deltas over the pass (cluster only)
	walBytes int64
}

// pass builds the system setupReps times (keeping the last), then runs
// one measured pass on it.
func (b *bench) pass(w *workload) (*passResult, error) {
	cal, err := newCalibrator()
	if err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	defer cal.close()
	var setups []float64
	var sys *system
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, err := w.setup(b, w)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		cal.slot()
		if i < setupReps-1 {
			s.close()
		} else {
			sys = s
		}
	}
	defer sys.close()
	pr := &passResult{rec: newRecorder(), setups: setups, setupS: median(setups) * cal.speed()}
	b.cur = pr.rec
	var sm0 serve.Metrics
	var cm0 cluster.Metrics
	if sys.tier != nil {
		sm0 = sys.tier.serveMetrics()
		if sys.tier.coord != nil {
			cm0 = sys.tier.coord.Metrics()
		}
	}
	cal.reset()
	// Start from a collected heap with the discarded set-ups' pages
	// returned to the OS, so the footprint peak is the pass's own.
	debug.FreeOSMemory()
	pr.rt0 = snapRuntime()
	heap := startHeapSampler()
	pr.rec.start = time.Now()
	p := newPacer(cal, w.conns)
	err = w.run(b, w, sys, p)
	pr.rec.elapsed = p.finish()
	pr.speed = cal.speed()
	pr.heapMB = heap.finish()
	pr.rt1 = snapRuntime()
	if err != nil {
		return nil, err
	}
	if sys.tier != nil {
		sm := sys.tier.serveMetrics()
		pr.serve = serve.Metrics{
			Deduped: sm.Deduped - sm0.Deduped, Shed: sm.Shed - sm0.Shed,
			Appended: sm.Appended - sm0.Appended, Fsyncs: sm.Fsyncs - sm0.Fsyncs,
			Replicated: sm.Replicated - sm0.Replicated,
		}
		pr.walBytes = sys.tier.walBytes()
		if sys.tier.coord != nil {
			cm := sys.tier.coord.Metrics()
			pr.coord = cluster.Metrics{
				Hedges: cm.Hedges - cm0.Hedges, HedgeWins: cm.HedgeWins - cm0.HedgeWins,
				Failovers: cm.Failovers - cm0.Failovers,
			}
		}
	}
	return pr, nil
}

// endToEnd derives the end-to-end metrics of one pass. The first group
// is the BENCHMARK.json set, reported on every workload in the result
// line; extra holds the rest, printed by name in the text report.
func endToEnd(pr *passResult) (map[string]metric, map[string]metric) {
	r := pr.rec
	secs := r.elapsed.Seconds()
	p50, _ := r.classQuantiles(classPublish, 0.5)
	p90, _ := r.classQuantiles(classPublish, 0.9)
	m := map[string]metric{
		"setup_s":           {pr.setupS, "s"},
		"heap_peak_mb":      {pr.heapMB, "MiB"},
		"publish_per_ref_s": {float64(r.publishes) / secs / pr.speed, "1/ref-s"},
	}
	extra := map[string]metric{
		"publish_per_s":  {float64(r.publishes) / secs, "1/s"},
		"host_speed":     {pr.speed, "x"},
		"failed_frac":    {float64(r.failed) / float64(max(r.attempted, 1)), "failed/attempted"},
		"publish_p50_ms": {p50, "ms"},
		"publish_p90_ms": {p90, "ms"},
		"nodes_per_s":    {float64(r.nodes) / secs, "nodes/s"},
	}
	for _, c := range []struct{ class, name string }{
		{classMutate, "mutate"}, {classRaw, "raw_publish"},
	} {
		if v50, n := r.classQuantiles(c.class, 0.5); n > 0 {
			v90, _ := r.classQuantiles(c.class, 0.9)
			extra[c.name+"_p50_ms"] = metric{v50, "ms"}
			extra[c.name+"_p90_ms"] = metric{v90, "ms"}
		}
	}
	if v, n := r.classQuantiles(classRelation, 0.5); n > 0 {
		extra["relation_ms"] = metric{v, "ms"}
	}
	return m, extra
}

func (b *bench) execute(w *workload, traced bool, workdir string) (*report, error) {
	rep := &report{}
	say := func(format string, args ...any) { rep.text = append(rep.text, fmt.Sprintf(format, args...)) }
	say("workload %s seed %d seconds %g trace %v", w.name, b.in.Seed, b.seconds, traced)
	say("inputs %s", b.in.sizeSummary(w.dbs))
	say("load: closed loop, %s", w.load)
	if err := b.gold.all(w); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}

	un, err := b.pass(w)
	if err != nil {
		return nil, err
	}
	e2e, extra := endToEnd(un)
	sayMetrics(say, "end-to-end", un.rec, e2e, extra)
	say("  set-up samples (s): %.4f; median %.4f, on the nominal host %.4f", un.setups, median(un.setups), un.setupS)
	rep.result = result{Attempted: un.rec.attempted, Failed: un.rec.failed, Metrics: e2e}
	if !traced {
		rep.result.Correct = un.rec.failed == 0
		if un.rec.firstErr != "" {
			say("first failure: %s", un.rec.firstErr)
		}
		return rep, checkNumbers(e2e)
	}

	b.tr = newTracer()
	mir, err := newMirror(b, w)
	if err != nil {
		return nil, fmt.Errorf("mirror: %w", err)
	}
	defer mir.close()
	b.mir = mir
	tp, err := b.pass(w)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	te2e, textra := endToEnd(tp)
	sayMetrics(say, "traced end-to-end", tp.rec, te2e, textra)
	var pc probeCounts
	if err := b.probe(w, &pc); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	layers := b.layerMetrics(w, un, tp, &pc)
	names := make([]string, 0, len(te2e))
	for n := range te2e {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		say("tracing overhead %-16s %+.2f%% (untraced %.4g, traced %.4g %s)", n,
			100*(te2e[n].Value-e2e[n].Value)/e2e[n].Value, e2e[n].Value, te2e[n].Value, e2e[n].Unit)
	}
	for _, row := range layerTable {
		say("layer %-8s %-28s %12.4f %-8s moves %s on %s", row.layer, row.name, layers[row.name].Value, row.unit, row.moves, row.on)
	}
	if err := os.MkdirAll(filepath.Join(workdir, "traces"), 0o755); err == nil {
		path := filepath.Join(workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, b.in.Seed))
		if err := b.tr.write(path); err == nil {
			say("spans written to %s", path)
		}
	}
	failed := un.rec.failed + tp.rec.failed
	if tp.rec.firstErr != "" {
		say("first traced failure: %s", tp.rec.firstErr)
	}
	rep.result = result{
		Correct:   failed == 0,
		Attempted: un.rec.attempted + tp.rec.attempted,
		Failed:    failed,
		Metrics:   layers,
	}
	return rep, checkNumbers(layers)
}

func sayMetrics(say func(string, ...any), title string, r *recorder, m, extra map[string]metric) {
	say("%s: attempted %d failed %d elapsed %.3fs", title, r.attempted, r.failed, r.elapsed.Seconds())
	for _, c := range []string{classPublish, classRaw, classMutate, classRelation} {
		if _, n := r.classQuantiles(c, 0.5); n > 0 {
			say("  %s samples: %d", c, n)
			for _, k := range r.kinds(c) {
				xs := r.samples[c][k]
				say("    %-28s n=%-6d p50 %.4f ms", k, len(xs), median(xs))
			}
		}
	}
	all := map[string]metric{}
	for k, v := range m {
		all[k] = v
	}
	for k, v := range extra {
		all[k] = v
	}
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		say("  %-20s %14.4f %s", n, all[n].Value, all[n].Unit)
	}
}

// checkNumbers refuses to print a result with a missing measurement.
func checkNumbers(m map[string]metric) error {
	for n, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s was not measured", n)
		}
	}
	return nil
}
