package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"ptx/internal/datalog"
	"ptx/internal/eval"
	"ptx/internal/incr"
	"ptx/internal/parser"
	"ptx/internal/pt"
	"ptx/internal/relation"
	"ptx/internal/runctl"
	"ptx/internal/serve"
	"ptx/internal/wal"
)

// Tracing from outside the program: every call into a layer's public
// functions that the benchmark makes is wrapped in a span, and the
// traced pass repeats each request's library work on mirror state (a
// second registry with its own WAL, a second log, live views) so that
// work becomes child spans of the request. Spans stay in memory and
// are written out when the run ends.

type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Attr   string  `json:"attr,omitempty"`
	Start  float64 `json:"start_ms"`
	Dur    float64 `json:"dur_ms"`
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records one finished span and returns its id (ids start at 1; 0
// means "no parent").
func (t *tracer) add(name string, parent int, start, end time.Time, attr string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Attr: attr,
		Start: ms(start.Sub(t.t0)), Dur: ms(end.Sub(start)),
	})
	return id
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durations returns the durations of spans named name whose attribute
// is attr ("" matches any).
func (t *tracer) durations(name, attr string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (attr == "" || s.Attr == attr) {
			out = append(out, s.Dur)
		}
	}
	return out
}

// selfTimes returns, for each span named name (and attr), its duration
// minus the durations of its children named in subtract.
func (t *tracer) selfTimes(name, attr string, subtract ...string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int]float64{}
	for _, s := range t.spans {
		for _, n := range subtract {
			if s.Name == n && s.Parent != 0 {
				child[s.Parent] += s.Dur
			}
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (attr == "" || s.Attr == attr) {
			if c, ok := child[s.ID]; ok {
				out = append(out, s.Dur-c)
			}
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// compatible reports whether db's text parses under spec's schema.
func compatible(spec, db string) bool {
	switch spec {
	case "tau1", "tau2v", "tau3":
		return db == "chain" || strings.HasPrefix(db, "reg")
	case "unfold":
		return strings.HasPrefix(db, "diamond")
	case "counter":
		return db == "counter"
	case "tc":
		return db == "tcgraph"
	}
	return false
}

// mirror is the traced pass's shadow of the system under test.
type mirror struct {
	b      *bench
	specs  []string
	reg    *serve.Registry
	logA   *wal.Log // attached to reg: MutateDB pays an fsync like the server
	logB   *wal.Log // a bare log receiving the same records
	dirA   string
	dirB   string
	client *http.Client
	solo   *node // standalone server whose mutates the cluster's are compared with

	mu          sync.Mutex
	views       map[string]*incr.View
	memos       map[string]*eval.Memo
	acked       map[string][]*relation.Delta
	masks       map[string]uint // db → toggle mask of the mirror's state
	progs       map[string]*datalog.Program
	countViews  bool // mirror views supply the incr counts (no /mutate reports)
	hits        int64
	misses      int64
	viewQueries int
	deltas      int // mutations repeated on the mirror
	rebuilds    int
	worst       map[string]int // spec → most queries one repair ran
}

func newMirror(b *bench, w *workload) (m *mirror, err error) {
	m = &mirror{
		b: b, specs: w.specs, reg: serve.NewRegistry(), client: &http.Client{},
		views: map[string]*incr.View{}, memos: map[string]*eval.Memo{},
		acked: map[string][]*relation.Delta{}, masks: map[string]uint{}, progs: map[string]*datalog.Program{},
		worst: map[string]int{}, countViews: w.name != "read-after-write",
	}
	defer func() {
		if err != nil {
			m.close()
			m = nil
		}
	}()
	for _, s := range w.specs {
		if err := m.reg.RegisterSpec(s, b.in.Specs[s]); err != nil {
			return nil, err
		}
	}
	for _, d := range w.dbs {
		if err := m.reg.RegisterDB(d, b.in.DBs[d].Text); err != nil {
			return nil, err
		}
	}
	if m.dirA, err = os.MkdirTemp(b.workdir, "mirror-a-"); err != nil {
		return nil, err
	}
	if m.dirB, err = os.MkdirTemp(b.workdir, "mirror-b-"); err != nil {
		return nil, err
	}
	if m.logA, err = wal.Open(m.dirA, wal.Options{}); err != nil {
		return nil, err
	}
	m.reg.AttachWAL(m.logA)
	if m.logB, err = wal.Open(m.dirB, wal.Options{}); err != nil {
		return nil, err
	}
	for _, d := range w.dbs {
		if len(b.in.DBs[d].Toggles) == 0 {
			continue
		}
		for _, s := range w.specs {
			if !compatible(s, d) {
				continue
			}
			tr, inst, _, err := m.reg.Pair(s, d)
			if err != nil {
				return nil, err
			}
			v, err := incr.NewView(context.Background(), tr, inst.Clone(), incr.Options{Run: pt.Options{MaxNodes: maxNodes}})
			if err != nil {
				return nil, err
			}
			m.views[s+"\x00"+d] = v
		}
	}
	if w.name == "cluster" {
		dir, err := os.MkdirTemp(b.workdir, "standalone-")
		if err != nil {
			return nil, err
		}
		if m.solo, err = newNode(b.in, "standalone", w.specs, w.dbs, dir); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *mirror) close() {
	if m.solo != nil {
		m.solo.close()
	}
	for _, l := range []*wal.Log{m.logA, m.logB} {
		if l != nil {
			_ = l.Close()
		}
	}
	for _, d := range []string{m.dirA, m.dirB} {
		if d != "" {
			_ = os.RemoveAll(d)
		}
	}
	m.client.CloseIdleConnections()
}

// serverOptions mirror serve's defaults for a publish with no options.
func serverOptions(memo *eval.Memo) pt.Options {
	return pt.Options{
		Limits: &runctl.Limits{Timeout: 10 * time.Second, MaxNodes: maxNodes},
		Cache:  pt.CacheQueries,
		Memo:   memo,
	}
}

type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// publish repeats one served publish on the mirror: Registry.Pair,
// RunContext under the pair's memo, WriteXMLVirtual to a counting
// discard; after a mutate (raw) also the parse-and-replay the registry
// pays inside Pair, timed on its own.
func (m *mirror) publish(spec, db string, parent int, raw bool) error {
	ctx := context.Background()
	m.mu.Lock()
	mask := m.masks[db]
	m.mu.Unlock()
	g, err := m.b.gold.get(spec, db, mask)
	if err != nil {
		return err
	}
	t0 := time.Now()
	tr, inst, memo, err := m.reg.Pair(spec, db)
	t1 := time.Now()
	if err != nil {
		return err
	}
	key := spec + "\x00" + db
	m.mu.Lock()
	rebuilt := m.memos[key] != memo
	m.memos[key] = memo
	m.mu.Unlock()
	state := "warm"
	if rebuilt {
		state = "cold"
	}
	m.b.tr.add("serve.pair", parent, t0, t1, state)
	h0, s0, _ := memo.Stats()
	res, err := tr.RunContext(ctx, inst, serverOptions(memo))
	t2 := time.Now()
	if err != nil {
		return err
	}
	h1, s1, _ := memo.Stats()
	m.mu.Lock()
	m.hits += h1 - h0
	m.misses += s1 - s0
	m.mu.Unlock()
	m.b.tr.add("pt.run", parent, t1, t2, state)
	var cw countWriter
	if err := res.Xi.WriteXMLVirtual(&cw, tr.Virtual); err != nil {
		return err
	}
	t3 := time.Now()
	m.b.tr.add("xmltree.write", parent, t2, t3, state)
	if cw.n != len(g.body) {
		return fmt.Errorf("mirror wrote %d bytes, golden has %d", cw.n, len(g.body))
	}
	if raw {
		m.mu.Lock()
		log := append([]*relation.Delta(nil), m.acked[db]...)
		m.mu.Unlock()
		p0 := time.Now()
		pinst, err := parser.ParseInstance(m.b.in.DBs[db].Text, tr.Schema)
		if err != nil {
			return err
		}
		for _, d := range log {
			if _, err := pinst.Apply(d); err != nil {
				return err
			}
		}
		m.b.tr.add("parser.db", parent, p0, time.Now(), "replay")
	}
	return nil
}

// mutate repeats one acked flip of db's toggle slot on the mirror:
// Registry.MutateDB with a WAL attached, Log.Append of the same record on
// a bare log, View.Apply on every live view over db, and — for the
// cluster — the same /mutate body sent to a standalone server.
func (m *mirror) mutate(db string, slot int, body []byte, parent int) error {
	m.mu.Lock()
	mask := m.masks[db]
	m.masks[db] = mask ^ 1<<slot
	m.mu.Unlock()
	d := toggleDelta(m.b.in.DBs[db].Toggles[slot], mask&(1<<slot) != 0)
	t0 := time.Now()
	_, seq, err := m.reg.MutateDB(db, d, 0)
	t1 := time.Now()
	if err != nil {
		return err
	}
	m.b.tr.add("serve.commit", parent, t0, t1, "")
	if err := m.logB.Append(wal.Record{DB: db, Seq: seq, Delta: d}); err != nil {
		return err
	}
	m.b.tr.add("wal.append", parent, t1, time.Now(), "")
	for _, s := range m.specs {
		v := m.views[s+"\x00"+db]
		if v == nil {
			continue
		}
		a0 := time.Now()
		rep, err := v.Apply(context.Background(), d)
		if err != nil {
			return err
		}
		m.b.tr.add("incr.apply", parent, a0, time.Now(), s)
		if m.countViews {
			m.viewReport(s, db, rep.QueriesRun, rep.FullRebuild)
		}
	}
	m.mu.Lock()
	m.acked[db] = append(m.acked[db], d)
	m.deltas++
	m.mu.Unlock()
	if m.solo != nil && body != nil {
		s0 := time.Now()
		status, _, resp, err := post(m.client, m.solo.ts.URL+"/mutate", body)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("standalone mutate: status %d err %v %s", status, err, resp)
		}
		m.b.tr.add("cluster.standalone", parent, s0, time.Now(), "")
	}
	return nil
}

// viewReport folds one live-view repair report into the incr counts.
func (m *mirror) viewReport(spec, db string, queries int, full bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.viewQueries += queries
	if full {
		m.rebuilds++
	}
	if queries > m.worst[spec] {
		m.worst[spec] = queries
	}
}

// datalog runs the linear-datalog translation of a relation input and
// checks it agrees with the transducer's relation output.
func (m *mirror) datalog(li *libInput, parent int) error {
	m.mu.Lock()
	prog := m.progs[li.kind]
	m.mu.Unlock()
	if prog == nil {
		p, err := datalog.FromTransducer(li.tr, li.label)
		if err != nil {
			return err
		}
		prog = p
		m.mu.Lock()
		m.progs[li.kind] = p
		m.mu.Unlock()
	}
	t0 := time.Now()
	rel, err := prog.Eval(li.inst)
	if err != nil {
		return err
	}
	m.b.tr.add("datalog.eval", parent, t0, time.Now(), li.kind)
	if relationText(rel) != li.goldRel {
		return fmt.Errorf("datalog relation differs from the reference")
	}
	return nil
}
