package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"time"

	"ptx/internal/datalog"
	"ptx/internal/eval"
	"ptx/internal/logic"
	"ptx/internal/parser"
	"ptx/internal/plan"
	"ptx/internal/pt"
	"ptx/internal/relation"
)

// The layer probe runs after the traced pass. It times the layers every
// workload touches (spec parsing, plan compilation, the plan-vs-oracle
// ratio) and fills in, on mirror state built from the same inputs, the
// layers the workload's own traffic does not reach, so every per-layer
// row exists on every workload. The doc lists which workload each row is
// meant for.

const probeReps = 5

// probeCounts are the deterministic counts and ratios the probe
// computes directly rather than from spans.
type probeCounts struct {
	nodes, queries, bytes int
	speedup               float64
	forward, overhead     []float64 // cluster probe differences (ms)
	hedges, hedgeWins     int64
	failovers, replicated int64
}

// publishPairs lists the (spec, db) pairs a workload publishes.
func publishPairs(w *workload) [][2]string {
	switch w.name {
	case "library":
		var ps [][2]string
		for _, k := range libraryKinds {
			if k.label == "" {
				ps = append(ps, [2]string{k.spec, k.db})
			}
		}
		return ps
	case "publish-warm":
		return append(publishWarmPairs(0), publishWarmPairs(1)...)
	}
	var ps [][2]string
	for _, db := range w.dbs {
		for _, s := range w.specs {
			ps = append(ps, [2]string{s, db})
		}
	}
	return ps
}

func (b *bench) probe(w *workload, pc *probeCounts) error {
	ctx := context.Background()
	m := b.mir
	tr := b.tr
	specs := map[string]*pt.Transducer{}
	for _, s := range w.specs {
		t, err := parser.ParseTransducer(b.in.Specs[s])
		if err != nil {
			return err
		}
		specs[s] = t
	}
	pairs := publishPairs(w)
	if w.name != "cluster" {
		if err := b.probeCluster(w, pairs, pc); err != nil {
			return err
		}
	}

	// Mutation path on mirror state, for workloads without mutations.
	if len(tr.durations("serve.commit", "")) == 0 {
		db := firstToggleDB(b, w)
		var regSpecs []string
		for _, s := range w.specs {
			if compatible(s, db) {
				regSpecs = append(regSpecs, s)
			}
		}
		for k, slot := range slotSequence(b.in.Seed, 9, 16, len(b.in.DBs[db].Toggles)) {
			if err := m.mutate(db, slot, nil, 0); err != nil {
				return err
			}
			if err := m.publish(regSpecs[k%len(regSpecs)], db, 0, true); err != nil {
				return err
			}
		}
	}

	// Spec parsing and plan compilation: every workload pays them in
	// set-up.
	var queries []*logic.Query
	seen := map[*logic.Query]bool{}
	for _, s := range w.specs {
		for _, r := range specs[s].Rules() {
			for _, it := range r.Items {
				if !seen[it.Query] {
					seen[it.Query] = true
					queries = append(queries, it.Query)
				}
			}
		}
	}
	for rep := 0; rep < probeReps; rep++ {
		t0 := time.Now()
		for _, s := range w.specs {
			if _, err := parser.ParseTransducer(b.in.Specs[s]); err != nil {
				return err
			}
		}
		t1 := time.Now()
		tr.add("parser.spec", 0, t0, t1, "")
		for _, q := range queries {
			if _, err := plan.Compile(q); err != nil {
				return fmt.Errorf("plan.Compile %s: %w", q, err)
			}
		}
		tr.add("plan.compile", 0, t1, time.Now(), "")
	}

	// Database parsing, where no raw publish timed a replay.
	if len(tr.durations("parser.db", "")) == 0 {
		for _, p := range pairs {
			for rep := 0; rep < probeReps; rep++ {
				t0 := time.Now()
				if _, err := parser.ParseInstance(b.in.DBs[p[1]].Text, specs[p[0]].Schema); err != nil {
					return err
				}
				tr.add("parser.db", 0, t0, time.Now(), "base")
			}
		}
	}

	// Runs, counts and serialization per publish pair.
	needCold := len(tr.durations("pt.run", "cold")) == 0
	needWarm := len(tr.durations("pt.run", "warm")) == 0
	needHits := m.hits+m.misses == 0
	var planT, naiveT time.Duration
	for _, p := range pairs {
		t := specs[p[0]]
		inst, err := instanceAt(t, b.in.DBs[p[1]], 0)
		if err != nil {
			return err
		}
		res, err := t.RunContext(ctx, inst, libraryOptions())
		if err != nil {
			return err
		}
		var cw countWriter
		if err := res.Xi.WriteXMLVirtual(&cw, t.Virtual); err != nil {
			return err
		}
		pc.nodes += res.Stats.Nodes
		pc.queries += res.Stats.QueriesRun
		pc.bytes += cw.n
		for rep := 0; rep < probeReps; rep++ {
			memo := eval.NewMemo(0)
			t0 := time.Now()
			if _, err := t.RunContext(ctx, inst, serverOptions(memo)); err != nil {
				return err
			}
			t1 := time.Now()
			res, err := t.RunContext(ctx, inst, serverOptions(memo))
			if err != nil {
				return err
			}
			t2 := time.Now()
			if needCold {
				tr.add("pt.run", 0, t0, t1, "cold")
			}
			if needWarm {
				tr.add("pt.run", 0, t1, t2, "warm")
			}
			if needHits && rep == 0 {
				h, s, _ := memo.Stats()
				m.hits += h
				m.misses += s
			}
			var cw countWriter
			_ = res.Xi.WriteXMLVirtual(&cw, t.Virtual)
			tr.add("xmltree.write", 0, t2, time.Now(), "probe")
		}
		// plan.speedup_x: the compiled path against the oracle on the
		// pair's base-instance queries (the root rule reads no register).
		env := eval.NewEnv(inst)
		if rule, ok := t.Rule(t.Start, t.RootTag); ok {
			for _, it := range rule.Items {
				pd, nd, err := planVsNaive(it.Query, env)
				if err != nil {
					return err
				}
				planT += pd
				naiveT += nd
			}
		}
	}
	pc.speedup = float64(naiveT) / float64(planT)

	// Relation outputs: the datalog translation of τ1 on each registrar
	// database, where the workload ran no relation pass.
	if len(tr.durations("datalog.eval", "")) == 0 {
		prog, err := datalog.FromTransducer(specs["tau1"], "course")
		if err != nil {
			return err
		}
		for _, p := range pairs {
			if p[0] != "tau1" {
				continue
			}
			inst, err := instanceAt(specs["tau1"], b.in.DBs[p[1]], 0)
			if err != nil {
				return err
			}
			for rep := 0; rep < probeReps; rep++ {
				t0 := time.Now()
				if _, err := prog.Eval(inst); err != nil {
					return err
				}
				tr.add("datalog.eval", 0, t0, time.Now(), p[1])
			}
		}
	}

	return nil
}

// planVsNaive times EvalQuery and EvalQueryNaive on q, checking they
// agree, repeating the compiled side until it has run for a while.
func planVsNaive(q *logic.Query, env *eval.Env) (time.Duration, time.Duration, error) {
	t0 := time.Now()
	want, err := eval.EvalQueryNaive(q, env)
	if err != nil {
		return 0, 0, err
	}
	naive := time.Since(t0)
	var got *relation.Relation
	n := 0
	t1 := time.Now()
	for time.Since(t1) < naive || n < 3 {
		if got, err = eval.EvalQuery(q, env); err != nil {
			return 0, 0, err
		}
		n++
	}
	planned := time.Since(t1) / time.Duration(n)
	if !got.Equal(want) {
		return 0, 0, fmt.Errorf("plan and oracle disagree on %s", q)
	}
	return planned, naive, nil
}

// probeCluster measures the coordinator's forwarding and mutation
// overheads on a three-node tier built from the workload's own inputs,
// for workloads that do not run the cluster.
func (b *bench) probeCluster(w *workload, pairs [][2]string, pc *probeCounts) error {
	t, err := newCluster(b.in, w.specs, w.dbs, b.workdir)
	if err != nil {
		return err
	}
	defer t.close()
	dir, err := os.MkdirTemp(b.workdir, "standalone-")
	if err != nil {
		return err
	}
	solo, err := newNode(b.in, "standalone", w.specs, w.dbs, dir)
	if err != nil {
		return err
	}
	defer solo.close()
	c := newClient()
	defer c.CloseIdleConnections()
	before := t.coord.Metrics()
	sm := t.serveMetrics()
	for rep := 0; rep < probeReps; rep++ {
		for _, p := range pairs {
			body := publishBody(p[0], p[1])
			t0 := time.Now()
			st, hdr, _, err := post(c, t.url+"/publish", body)
			d := time.Since(t0)
			if err != nil || st != http.StatusOK {
				return fmt.Errorf("probe publish %v: status %d err %v", p, st, err)
			}
			t1 := time.Now()
			st, _, _, err = post(c, t.nodeURL(hdr.Get("X-Ptserve-Node"))+"/publish", body)
			t2 := time.Now()
			if err != nil || st != http.StatusOK {
				return fmt.Errorf("probe direct publish %v: status %d err %v", p, st, err)
			}
			pc.forward = append(pc.forward, ms(d-t2.Sub(t1)))
			// The direct publish is a plain serve request: its mirror
			// children give serve.self_ms on workloads without a server.
			id := b.tr.add("http.publish", 0, t1, t2, "probe")
			if err := b.mir.publish(p[0], p[1], id, false); err != nil {
				return err
			}
		}
	}
	for _, db := range w.dbs {
		toggles := b.in.DBs[db].Toggles
		if len(toggles) == 0 {
			continue
		}
		var mask uint
		for _, slot := range slotSequence(b.in.Seed, 11, 2*probeReps, len(toggles)) {
			body := mutateBody(w.specs[0], db, toggles[slot].ops(mask&(1<<slot) != 0))
			mask ^= 1 << slot
			t0 := time.Now()
			st, _, resp, err := post(c, t.url+"/mutate", body)
			d := time.Since(t0)
			if err != nil || st != http.StatusOK {
				return fmt.Errorf("probe mutate: status %d err %v %s", st, err, resp)
			}
			t1 := time.Now()
			st, _, resp, err = post(c, solo.ts.URL+"/mutate", body)
			if err != nil || st != http.StatusOK {
				return fmt.Errorf("probe standalone mutate: status %d err %v %s", st, err, resp)
			}
			pc.overhead = append(pc.overhead, ms(d-time.Since(t1)))
		}
		break
	}
	after := t.coord.Metrics()
	pc.hedges = after.Hedges - before.Hedges
	pc.hedgeWins = after.HedgeWins - before.HedgeWins
	pc.failovers = after.Failovers - before.Failovers
	pc.replicated = t.serveMetrics().Replicated - sm.Replicated
	return nil
}
