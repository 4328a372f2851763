// Per-database writers: a write holds only its own database's writer
// lock, so writes to different databases commit, fsync and repair their
// live views in parallel, while each database's sequence, WAL order and
// view versions stay exactly those of one writer.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"ptx/internal/wal"
)

// parallelRegistry registers the example specs and the registrar source
// under each of dbs, with a WAL over dir attached.
func parallelRegistry(t *testing.T, dir string, dbs ...string) (*Registry, *wal.Log) {
	t.Helper()
	reg := NewRegistry()
	for _, spec := range []string{"tau1", "tau2v", "tau3"} {
		src, err := os.ReadFile("../../examples/specs/" + spec + ".pt")
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.RegisterSpec(spec, string(src)); err != nil {
			t.Fatal(err)
		}
	}
	_, dbSrc := exampleSources(t)
	for _, db := range dbs {
		if err := reg.RegisterDB(db, dbSrc); err != nil {
			t.Fatal(err)
		}
	}
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg.AttachWAL(l)
	return reg, l
}

// courseMutate is the /mutate body inserting or deleting the CS course
// cno over db.
func courseMutate(db, op, cno string) string {
	return fmt.Sprintf(`{"spec":"tau1","db":%q,"ops":[{"op":%q,"rel":"course","tuple":[%q,"Parallel","CS"]}]}`, db, op, cno)
}

// checkSeqs asserts db's log holds exactly the records 1..n, in order.
func checkSeqs(t *testing.T, reg *Registry, db string, n uint64) {
	t.Helper()
	recs := reg.RecordsSince(db, 0)
	if reg.Seq(db) != n || uint64(len(recs)) != n {
		t.Fatalf("%s: seq %d with %d records, want %d", db, reg.Seq(db), len(recs), n)
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("%s: record %d has seq %d, want %d", db, i, rec.Seq, i+1)
		}
	}
}

// TestParallelMutateOtherDatabase: while database A's writer lock is
// held, a /mutate on database B is acked with its live view's repair
// report within a deadline, and a /mutate on A completes only after the
// lock is released. Both databases' sequences stay contiguous.
func TestParallelMutateOtherDatabase(t *testing.T) {
	reg, l := parallelRegistry(t, t.TempDir(), "dba", "dbb")
	defer l.Close()
	s, ts := newTestServer(t, Config{Registry: reg, Workers: 4, Queue: 8})
	for _, db := range []string{"dba", "dbb"} {
		openView(t, ts, "tau1", db)
		mutateOK(t, ts, courseMutate(db, "insert", "CS900"))
	}

	a, err := s.reg.db("dba")
	if err != nil {
		t.Fatal(err)
	}
	a.w.Lock()
	released := false
	defer func() {
		if !released {
			a.w.Unlock()
		}
	}()
	client := &http.Client{Timeout: 5 * time.Second}
	mutate := func(db string) (mutateResponse, error) {
		var mr mutateResponse
		resp, err := client.Post(ts.URL+"/mutate", "application/json", strings.NewReader(courseMutate(db, "insert", "CS901")))
		if err != nil {
			return mr, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return mr, fmt.Errorf("status %d", resp.StatusCode)
		}
		return mr, json.NewDecoder(resp.Body).Decode(&mr)
	}
	doneA := make(chan mutateResponse, 1)
	go func() {
		mr, err := mutate("dba")
		if err != nil {
			t.Errorf("mutate on A: %v", err)
		}
		doneA <- mr
	}()

	mb, err := mutate("dbb")
	if err != nil {
		t.Fatalf("mutate on B while A's writer lock is held: %v", err)
	}
	if mb.Seq != 2 || len(mb.Views) != 1 || mb.Views[0].Report == nil || mb.Views[0].Error != "" {
		t.Fatalf("mutate on B acked seq %d with views %+v, want seq 2 and one repair report", mb.Seq, mb.Views)
	}
	select {
	case mr := <-doneA:
		t.Fatalf("mutate on A completed at seq %d while its writer lock was held", mr.Seq)
	case <-time.After(100 * time.Millisecond):
	}

	released = true
	a.w.Unlock()
	select {
	case ma := <-doneA:
		if ma.Seq != 2 || len(ma.Views) != 1 || ma.Views[0].Report == nil {
			t.Fatalf("mutate on A acked seq %d with views %+v, want seq 2 and one repair report", ma.Seq, ma.Views)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("mutate on A did not complete after its writer lock was released")
	}
	checkSeqs(t, s.reg, "dba", 2)
	checkSeqs(t, s.reg, "dbb", 2)
}

// forcedPublish returns the XML a run over (spec, db)'s current version
// produces: a depth limit makes the publish ineligible for a stored
// document or a live view.
func forcedPublish(t *testing.T, ts *httptest.Server, spec, db string) []byte {
	t.Helper()
	status, _, body := post(t, ts, fmt.Sprintf(`{"spec":%q,"db":%q,"limits":{"max_depth":1000}}`, spec, db))
	if status != http.StatusOK {
		t.Fatalf("forced publish %s/%s: status %d: %s", spec, db, status, body)
	}
	return body
}

// TestParallelWritersDifferential: three databases, with live views
// opened concurrently, take seeded /mutate traffic from one goroutine
// each while others publish and watch. Afterwards every view renders,
// and a fresh publish returns, what a forced run over the pair's
// version does; each database's log is contiguous; and a fresh
// registry attached to the same WAL directory publishes the same
// documents.
func TestParallelWritersDifferential(t *testing.T) {
	dbs := []string{"db0", "db1", "db2"}
	pairs := []pairKey{{"tau1", "db0"}, {"tau1", "db1"}, {"tau1", "db2"}, {"tau2v", "db0"}, {"tau3", "db2"}}
	dir := t.TempDir()
	reg, l := parallelRegistry(t, dir, dbs...)
	s, ts := newTestServer(t, Config{Registry: reg, Workers: 4, Queue: 64})

	var wg sync.WaitGroup
	for _, p := range pairs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			openView(t, ts, p.spec, p.db)
		}()
	}
	wg.Wait()
	for _, p := range pairs {
		if s.liveView(p.spec, p.db) == nil {
			t.Fatalf("no live view over %s/%s after opening %d concurrently", p.spec, p.db, len(pairs))
		}
	}

	const mutations = 12
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := pairs[rng.Intn(len(pairs))]
				if status, _, body := post(t, ts, fmt.Sprintf(`{"spec":%q,"db":%q,"canonical":%v}`, p.spec, p.db, rng.Intn(2) == 0)); status != http.StatusOK {
					t.Errorf("publish %s/%s during the writes: status %d: %s", p.spec, p.db, status, body)
					return
				}
			}
		}()
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		after := map[pairKey]uint64{}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := pairs[i%len(pairs)]
			var wr watchResponse
			url := fmt.Sprintf("%s/watch?spec=%s&db=%s&after=%d&wait_ms=10", ts.URL, p.spec, p.db, after[p])
			if code := getJSON(t, ts.Client(), url, &wr); code != http.StatusOK {
				t.Errorf("watch %s/%s: status %d", p.spec, p.db, code)
				return
			}
			if wr.Version < after[p] {
				t.Errorf("watch %s/%s: version %d after cursor %d", p.spec, p.db, wr.Version, after[p])
				return
			}
			after[p] = wr.Version
		}
	}()
	var writers sync.WaitGroup
	for i, db := range dbs {
		writers.Add(1)
		go func() {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(100 + i)))
			for m := 0; m < mutations; m++ {
				op := []string{"insert", "delete"}[rng.Intn(2)]
				cno := fmt.Sprintf("CS9%02d", rng.Intn(4))
				if m == 0 {
					op = "insert" // every database moves at least once
				}
				resp, raw := postJSON(t, ts.Client(), ts.URL+"/mutate", courseMutate(db, op, cno))
				var mr mutateResponse
				if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &mr) != nil {
					t.Errorf("mutate %s: status %d: %s", db, resp.StatusCode, raw)
					return
				}
				if mr.Seq != uint64(m+1) {
					t.Errorf("mutate %s #%d acked seq %d", db, m+1, mr.Seq)
				}
				for _, vr := range mr.Views {
					if vr.Error != "" {
						t.Errorf("mutate %s: view %s repair failed: %s", db, vr.Spec, vr.Error)
					}
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	docs := map[pairKey][]byte{}
	for _, p := range pairs {
		want := forcedPublish(t, ts, p.spec, p.db)
		docs[p] = want
		got, _, err := s.liveView(p.spec, p.db).view.Snapshot(false)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s/%s: view renders %d bytes (error %v), a forced run %d, equal %v", p.spec, p.db, len(got), err, len(want), bytes.Equal(got, want))
		}
		if status, _, got := post(t, ts, fmt.Sprintf(`{"spec":%q,"db":%q}`, p.spec, p.db)); status != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("%s/%s: a fresh publish (status %d) differs from a forced run", p.spec, p.db, status)
		}
	}
	for _, db := range dbs {
		checkSeqs(t, s.reg, db, mutations)
	}

	ts.Close()
	s.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	reg2, l2 := parallelRegistry(t, dir, dbs...)
	defer l2.Close()
	_, ts2 := newTestServer(t, Config{Registry: reg2})
	for _, p := range pairs {
		if got := forcedPublish(t, ts2, p.spec, p.db); !bytes.Equal(got, docs[p]) {
			t.Errorf("%s/%s: the registry recovered from the WAL publishes other bytes", p.spec, p.db)
		}
	}
	for _, db := range dbs {
		checkSeqs(t, reg2, db, mutations)
	}
}
