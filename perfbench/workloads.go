package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"ptx/internal/parser"
	"ptx/internal/pt"
	"ptx/internal/relation"
	"ptx/internal/runctl"
)

// bench is one benchmark invocation's shared state.
type bench struct {
	in      *Inputs
	gold    *goldens
	seconds float64
	workdir string
	cur     *recorder // the pass being measured
	tr      *tracer   // nil on untraced passes
	mir     *mirror   // nil on untraced passes
}

// workload is one named traffic mix. setup builds a fresh system under
// test (timed, repeated); run drives one measured pass over it, its
// clients calling the pacer between operations.
type workload struct {
	name  string
	load  string // client count and WAL flush policy, as printed
	conns int    // closed-loop clients
	specs []string
	dbs   []string
	setup func(b *bench, w *workload) (*system, error)
	run   func(b *bench, w *workload, sys *system, p *pacer) error
}

// system is what setup built: library inputs or a serving tier.
type system struct {
	lib  []*libInput
	tier *tier
}

func (s *system) close() {
	if s.tier != nil {
		s.tier.close()
	}
}

const walPolicy = "WAL flush policy: fsync on every append, the production default (fsync latency is the host's, not a device's)"

var registrarSpecs = []string{"tau1", "tau2v", "tau3"}

var workloads = []*workload{
	{
		name:  "library",
		load:  "1 client calling the library; no server, no WAL",
		conns: 1,
		specs: []string{"tau1", "tau3", "unfold", "counter", "tc"},
		dbs:   []string{"chain", "reg0-db", "diamond0", "counter", "tcgraph"},
		setup: setupLibrary,
		run:   runLibrary,
	},
	{
		name:  "publish-warm",
		load:  "2 clients over loopback HTTP, one connection each; no mutations, no WAL",
		conns: clients,
		specs: []string{"tau1", "tau2v", "tau3", "unfold"},
		dbs:   []string{"reg0-db", "reg1-db", "diamond0", "diamond1"},
		setup: setupPublishWarm,
		run:   runPublishWarm,
	},
	{
		name:  "read-after-write",
		load:  "2 clients over loopback HTTP, one connection each; " + walPolicy,
		conns: clients,
		specs: registrarSpecs,
		dbs:   []string{"reg0-db", "reg1-db"},
		setup: setupReadAfterWrite,
		run:   runReadAfterWrite,
	},
	{
		name:  "cluster",
		load:  "2 clients over loopback HTTP to a coordinator over 3 nodes; each node's " + walPolicy,
		conns: clients,
		specs: registrarSpecs,
		dbs:   []string{"reg0-db", "reg1-db", "reg2-db", "reg3-db", "reg4-db", "reg5-db"},
		setup: setupCluster,
		run:   runCluster,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Operation counts for the workloads sized by count rather than time:
// replay cost grows with the delta log, so a faster build must not earn
// itself a longer log. Both scale with --seconds.
const (
	rawCyclesPerSecond  = 35  // read-after-write cycles per client per second of --seconds
	clusterOpsPerSecond = 200 // cluster operations per client per second of --seconds
	clusterMutateEvery  = 10  // one mutate per 9 publishes
	clusterDBsPerClient = 3
)

const (
	// clients is the closed-loop client count of every serving workload.
	clients = 2
	// maxNodes is the node budget of ptxml and of a server request that
	// sets none.
	maxNodes = 1_000_000
)

// --- library ---------------------------------------------------------------

// libInput is one library-path input: a publish (RunContext plus
// WriteXMLVirtual) or an OutputRelation pass on label.
type libInput struct {
	kind, spec, db, label string
	tr                    *pt.Transducer
	inst                  *relation.Instance
	gold                  *golden
	goldRel               string
}

var libraryKinds = []struct{ spec, db, label string }{
	{"tau1", "chain", ""},
	{"tau3", "reg0-db", ""},
	{"unfold", "diamond0", ""},
	{"counter", "counter", ""},
	{"tau1", "chain", "course"},
	{"tc", "tcgraph", "ans"},
}

// libraryOptions are ptxml's defaults: cache off, one worker, the node
// budget.
func libraryOptions() pt.Options {
	return pt.Options{MaxNodes: maxNodes, Workers: 1, Limits: &runctl.Limits{}, Cache: pt.CacheOff}
}

func setupLibrary(b *bench, w *workload) (*system, error) {
	sys := &system{}
	specs := map[string]*pt.Transducer{}
	for _, k := range libraryKinds {
		tr := specs[k.spec]
		if tr == nil {
			var err error
			if tr, err = parser.ParseTransducer(b.in.Specs[k.spec]); err != nil {
				return nil, err
			}
			specs[k.spec] = tr
		}
		inst, err := parser.ParseInstance(b.in.DBs[k.db].Text, tr.Schema)
		if err != nil {
			return nil, err
		}
		li := &libInput{spec: k.spec, db: k.db, label: k.label, tr: tr, inst: inst}
		if k.label == "" {
			li.kind = k.spec + "/" + k.db
			if li.gold, err = b.gold.get(k.spec, k.db, 0); err != nil {
				return nil, err
			}
		} else {
			li.kind = k.spec + "/" + k.db + "/" + k.label
			if li.goldRel, err = b.gold.relation(k.spec, k.db, k.label); err != nil {
				return nil, err
			}
		}
		// The first run of each input is set-up work: it settles lazy
		// state (compiled plans) the timed runs would otherwise pay once.
		if _, err := tr.RunContext(context.Background(), inst, libraryOptions()); err != nil {
			return nil, err
		}
		sys.lib = append(sys.lib, li)
	}
	return sys, nil
}

// runLibrary is one client calling the library directly, in whole
// rounds over the inputs until the time is up.
func runLibrary(b *bench, w *workload, sys *system, p *pacer) error {
	ctx := context.Background()
	rec := b.cur
	var buf bytes.Buffer
	defer p.done()
	for p.measured() < b.duration() {
		for _, li := range sys.lib {
			p.step()
			if li.label != "" {
				libRelation(ctx, b, li, rec)
				continue
			}
			t0 := time.Now()
			res, err := li.tr.RunContext(ctx, li.inst, libraryOptions())
			t1 := time.Now()
			if err != nil {
				rec.fail(classPublish, li.kind, err)
				continue
			}
			buf.Reset()
			err = res.Xi.WriteXMLVirtual(&buf, li.tr.Virtual)
			t2 := time.Now()
			switch {
			case err != nil:
				rec.fail(classPublish, li.kind, err)
			case !bytes.Equal(buf.Bytes(), li.gold.body):
				rec.fail(classPublish, li.kind, errWrongBytes)
			default:
				rec.ok(classPublish, li.kind, t2.Sub(t0), res.Stats.Nodes, res.Stats.QueriesRun)
			}
			if b.tr != nil {
				id := b.tr.add("library.publish", 0, t0, t2, li.kind)
				b.tr.add("pt.run", id, t0, t1, "cold")
				b.tr.add("xmltree.write", id, t1, t2, strconv.Itoa(buf.Len()))
			}
		}
	}
	return nil
}

// duration is a time-sized pass's measured time.
func (b *bench) duration() time.Duration {
	return time.Duration(b.seconds * float64(time.Second))
}

var errWrongBytes = fmt.Errorf("response differs from the reference golden")

func libRelation(ctx context.Context, b *bench, li *libInput, rec *recorder) {
	t0 := time.Now()
	rel, err := li.tr.OutputRelationContext(ctx, li.inst, li.label, libraryOptions())
	t1 := time.Now()
	switch {
	case err != nil:
		rec.fail(classRelation, li.kind, err)
		return
	case relationText(rel) != li.goldRel:
		rec.fail(classRelation, li.kind, errWrongBytes)
		return
	}
	rec.ok(classRelation, li.kind, t1.Sub(t0), 0, 0)
	if b.tr != nil {
		id := b.tr.add("library.relation", 0, t0, t1, li.kind)
		if err := b.mir.datalog(li, id); err != nil {
			rec.fail(classRelation, li.kind+" datalog", err)
		}
	}
}

// --- publish-warm ------------------------------------------------------------

// publishWarmPairs are the pairs client c cycles: τ1, τ2v and τ3 on its
// own registrar database and unfold on its own diamond. No pair is shared
// between the clients, so no publish waits on the other client's
// identical one through the server's deduplication of concurrent runs.
func publishWarmPairs(c int) [][2]string {
	db := fmt.Sprintf("reg%d-db", c)
	var ps [][2]string
	for _, s := range registrarSpecs {
		ps = append(ps, [2]string{s, db})
	}
	return append(ps, [2]string{"unfold", fmt.Sprintf("diamond%d", c)})
}

func setupPublishWarm(b *bench, w *workload) (*system, error) {
	t, err := newSingle(b.in, w.specs, w.dbs, "")
	if err != nil {
		return nil, err
	}
	sys := &system{tier: t}
	c := newClient()
	defer c.CloseIdleConnections()
	for i := 0; i < clients; i++ {
		for _, p := range publishWarmPairs(i) {
			if _, err := warmPublish(b, c, t.url, p[0], p[1]); err != nil {
				sys.close()
				return nil, err
			}
		}
	}
	return sys, nil
}

// warmPublish is one set-up publish, checked like any other. It returns
// the id of the node that served it.
func warmPublish(b *bench, c *http.Client, base, spec, db string) (string, error) {
	g, err := b.gold.get(spec, db, 0)
	if err != nil {
		return "", err
	}
	status, hdr, body, err := post(c, base+"/publish", publishBody(spec, db))
	if err != nil {
		return "", err
	}
	if status != http.StatusOK || !bytes.Equal(body, g.body) {
		return "", fmt.Errorf("warm-up publish %s/%s: status %d, golden match %v", spec, db, status, bytes.Equal(body, g.body))
	}
	return hdr.Get("X-Ptserve-Node"), nil
}

// runPublishWarm: two closed-loop clients, each cycling its own pairs in
// whole rounds, with no mutations.
func runPublishWarm(b *bench, w *workload, sys *system, p *pacer) error {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer p.done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			pairs := publishWarmPairs(c)
			for p.measured() < b.duration() {
				for _, pair := range pairs {
					p.step()
					httpPublish(b, sys.tier, cl, classPublish, pair[0], pair[1], 0, false)
				}
			}
		}(c)
	}
	wg.Wait()
	return nil
}

// httpPublish sends one publish, checks it against the golden for the
// database's current toggle mask, and (traced) adds the mirror spans.
func httpPublish(b *bench, t *tier, c *http.Client, class, spec, db string, mask uint, raw bool) {
	kind := spec
	g, err := b.gold.get(spec, db, mask)
	if err != nil {
		b.cur.fail(class, kind, err)
		return
	}
	body := publishBody(spec, db)
	t0 := time.Now()
	status, hdr, resp, err := post(c, t.url+"/publish", body)
	t1 := time.Now()
	rec := b.cur
	switch {
	case err != nil:
		rec.fail(class, kind, err)
		return
	case status != http.StatusOK:
		rec.fail(class, kind, fmt.Errorf("status %d: %s", status, resp))
		return
	case !bytes.Equal(resp, g.body):
		rec.fail(class, kind, errWrongBytes)
		return
	}
	q, _ := strconv.Atoi(hdr.Get("X-Ptserve-Queries"))
	rec.ok(class, kind, t1.Sub(t0), g.nodes, q)
	if b.tr == nil {
		return
	}
	id := b.tr.add("http.publish", 0, t0, t1, class)
	if t.coord != nil {
		// Forwarding overhead: the same body straight to the node that
		// served it.
		if u := t.nodeURL(hdr.Get("X-Ptserve-Node")); u != "" {
			d0 := time.Now()
			st, _, dresp, derr := post(c, u+"/publish", body)
			d1 := time.Now()
			if derr != nil || st != http.StatusOK || !bytes.Equal(dresp, g.body) {
				rec.fail(class, kind+" direct", fmt.Errorf("direct publish: status %d err %v", st, derr))
			} else {
				b.tr.add("cluster.direct", id, d0, d1, "")
			}
		}
	}
	if err := b.mir.publish(spec, db, id, raw); err != nil {
		rec.fail(class, kind+" mirror", err)
	}
}

// --- read-after-write --------------------------------------------------------

func setupReadAfterWrite(b *bench, w *workload) (*system, error) {
	dir, err := os.MkdirTemp(b.workdir, "raw-wal-")
	if err != nil {
		return nil, err
	}
	t, err := newSingle(b.in, w.specs, w.dbs, dir)
	if err != nil {
		return nil, err
	}
	sys := &system{tier: t}
	c := newClient()
	defer c.CloseIdleConnections()
	for _, db := range w.dbs {
		for _, s := range w.specs {
			if err := watch(c, t.url, s, db); err != nil {
				sys.close()
				return nil, err
			}
			if _, err := warmPublish(b, c, t.url, s, db); err != nil {
				sys.close()
				return nil, err
			}
		}
	}
	return sys, nil
}

// slotSequence is a client's seeded sequence of toggle slots.
func slotSequence(seed int64, client, n, slots int) []int {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)))
	seq := make([]int, n)
	for i := range seq {
		seq[i] = rng.Intn(slots)
	}
	return seq
}

// runReadAfterWrite: each client owns one database and repeats mutate,
// raw publish, warm publish for a fixed number of cycles.
func runReadAfterWrite(b *bench, w *workload, sys *system, p *pacer) error {
	cycles := int(rawCyclesPerSecond * b.seconds)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer p.done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			db := w.dbs[c]
			toggles := b.in.DBs[db].Toggles
			var mask uint
			for k, slot := range slotSequence(b.in.Seed, c, cycles, len(toggles)) {
				p.step()
				if !httpMutate(b, sys.tier, cl, db, slot, mask, uint64(k+1), len(w.specs)) {
					return // the database's state is unknown from here on
				}
				mask ^= 1 << slot
				spec := w.specs[k%len(w.specs)]
				httpPublish(b, sys.tier, cl, classRaw, spec, db, mask, true)
				httpPublish(b, sys.tier, cl, classPublish, spec, db, mask, false)
			}
		}(c)
	}
	wg.Wait()
	return nil
}

// httpMutate sends one flip of db's toggle slot out of the state mask
// and checks the ack: status 200, the expected sequence number, and one
// clean repair report per live view. It reports whether the delta is
// known to have committed.
func httpMutate(b *bench, t *tier, c *http.Client, db string, slot int, mask uint, wantSeq uint64, wantViews int) bool {
	body := mutateBody("tau1", db, b.in.DBs[db].Toggles[slot].ops(mask&(1<<slot) != 0))
	t0 := time.Now()
	status, _, resp, err := post(c, t.url+"/mutate", body)
	t1 := time.Now()
	rec := b.cur
	var rep mutateReply
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(resp, &rep)
	} else if err == nil {
		err = fmt.Errorf("status %d: %s", status, resp)
	}
	if err == nil && rep.Seq != wantSeq {
		err = fmt.Errorf("acked seq %d, want %d", rep.Seq, wantSeq)
	}
	if err == nil && len(rep.Views) != wantViews {
		err = fmt.Errorf("%d view reports, want %d", len(rep.Views), wantViews)
	}
	for _, v := range rep.Views {
		if err == nil && (v.Error != "" || v.Report == nil) {
			err = fmt.Errorf("view %s repair failed: %s", v.Spec, v.Error)
		}
	}
	if err != nil {
		rec.fail(classMutate, "delta", err)
		return false
	}
	rec.ok(classMutate, "delta", t1.Sub(t0), 0, 0)
	if b.tr == nil {
		return true
	}
	id := b.tr.add("http.mutate", 0, t0, t1, db)
	for _, v := range rep.Views {
		b.mir.viewReport(v.Spec, db, v.Report.QueriesRun, v.Report.FullRebuild)
	}
	if err := b.mir.mutate(db, slot, body, id); err != nil {
		rec.fail(classMutate, db+" mirror", err)
	}
	return true
}

// --- cluster -------------------------------------------------------------------

func setupCluster(b *bench, w *workload) (*system, error) {
	t, err := newCluster(b.in, w.specs, w.dbs, b.workdir)
	if err != nil {
		return nil, err
	}
	sys := &system{tier: t}
	c := newClient()
	defer c.CloseIdleConnections()
	owners := map[string]bool{}
	for _, db := range w.dbs {
		for _, s := range w.specs {
			node, err := warmPublish(b, c, t.url, s, db)
			if err != nil {
				sys.close()
				return nil, err
			}
			owners[node] = true
		}
	}
	// The workload exists to measure forwarding to every node.
	if len(owners) != len(t.nodes) {
		sys.close()
		return nil, fmt.Errorf("the pairs are served by %d of %d nodes", len(owners), len(t.nodes))
	}
	return sys, nil
}

// runCluster: two clients, each owning three databases, send nine
// publishes per mutate through the coordinator for a fixed op count.
func runCluster(b *bench, w *workload, sys *system, p *pacer) error {
	ops := int(clusterOpsPerSecond * b.seconds)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer p.done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			owned := w.dbs[c*clusterDBsPerClient : (c+1)*clusterDBsPerClient]
			masks := make([]uint, len(owned))
			seqs := make([]uint64, len(owned))
			rng := rand.New(rand.NewSource(b.in.Seed*104729 + int64(c)))
			for k := 0; k < ops; k++ {
				p.step()
				if k%clusterMutateEvery == clusterMutateEvery-1 {
					i := (k / clusterMutateEvery) % len(owned)
					slot := rng.Intn(len(b.in.DBs[owned[i]].Toggles))
					seqs[i]++
					if !httpMutate(b, sys.tier, cl, owned[i], slot, masks[i], seqs[i], 0) {
						return
					}
					masks[i] ^= 1 << slot
					continue
				}
				i := rng.Intn(len(owned))
				httpPublish(b, sys.tier, cl, classPublish, w.specs[rng.Intn(len(w.specs))], owned[i], masks[i], false)
			}
		}(c)
	}
	wg.Wait()
	return nil
}
