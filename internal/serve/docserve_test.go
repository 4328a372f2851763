// Doc-served publishes: the first successful eligible run of a pair
// version renders its document, which answers every later eligible
// publish that resolved the same version. These tests read the
// doc_served counter on /healthz to tell which path answered.
package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ptx/internal/relation"
	"ptx/internal/supervise"
	"ptx/internal/testutil"
	"ptx/internal/wal"
)

// docServed reads the doc_served counter from /healthz.
func docServed(t *testing.T, ts *httptest.Server) int64 {
	t.Helper()
	var h struct {
		Metrics Metrics `json:"metrics"`
	}
	if code := getJSON(t, ts.Client(), ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	return h.Metrics.DocServed
}

// publishDoc posts a publish that must succeed and reports its headers,
// its body and whether a stored document answered it.
func publishDoc(t *testing.T, ts *httptest.Server, req *http.Request) (http.Header, []byte, bool) {
	t.Helper()
	before := docServed(t, ts)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("POST /publish: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("publish: status %d: %s", resp.StatusCode, buf.Bytes())
	}
	switch d := docServed(t, ts) - before; d {
	case 0, 1:
		return resp.Header, buf.Bytes(), d == 1
	default:
		t.Fatalf("doc_served moved by %d over one publish", d)
		return nil, nil, false
	}
}

func publishDocBody(t *testing.T, ts *httptest.Server, body string) (http.Header, []byte, bool) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/publish", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return publishDoc(t, ts, req)
}

// currentVersion returns the pair's current version as the registry
// holds it.
func currentVersion(t *testing.T, s *Server, spec, db string) pairVersion {
	t.Helper()
	_, v, err := s.reg.version(spec, db)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestDocServedRepeatPublish: on τ1, τ2v and τ3 in XML and canonical
// form the first publish runs and the second is served from the
// version's document, with a forced run's bytes and node count, no
// queries, one attempt and no sharing.
func TestDocServedRepeatPublish(t *testing.T) {
	s, ts := newMutateServer(t)
	defer ts.Close()
	defer s.Close()
	_, dbSrc := exampleSources(t)
	for _, spec := range []string{"tau1", "tau2v", "tau3"} {
		src, err := os.ReadFile("../../examples/specs/" + spec + ".pt")
		if err != nil {
			t.Fatal(err)
		}
		for _, canonical := range []bool{false, true} {
			want := testutil.Golden(t, string(src), dbSrc, canonical)
			body := fmt.Sprintf(`{"spec":%q,"db":"registrar","canonical":%v}`, spec, canonical)
			if _, got, fromDoc := publishDocBody(t, ts, body); fromDoc || !bytes.Equal(got, want) {
				t.Fatalf("%s canonical=%v: first publish from doc %v, golden match %v", spec, canonical, fromDoc, bytes.Equal(got, want))
			}
			h, got, fromDoc := publishDocBody(t, ts, body)
			if !fromDoc || !bytes.Equal(got, want) {
				t.Fatalf("%s canonical=%v: repeat publish from doc %v, golden match %v\n got %q\nwant %q",
					spec, canonical, fromDoc, bytes.Equal(got, want), got, want)
			}
			forced := fmt.Sprintf(`{"spec":%q,"db":"registrar","canonical":%v,"limits":{"max_depth":1000}}`, spec, canonical)
			fh, fgot, fromDoc := publishDocBody(t, ts, forced)
			if fromDoc || !bytes.Equal(fgot, got) {
				t.Fatalf("%s canonical=%v: forced run from doc %v, same bytes %v", spec, canonical, fromDoc, bytes.Equal(fgot, got))
			}
			for name, want := range map[string]string{
				"X-Ptserve-Nodes":    fh.Get("X-Ptserve-Nodes"),
				"X-Ptserve-Queries":  "0",
				"X-Ptserve-Attempts": "1",
				"X-Ptserve-Shared":   "false",
				"X-Ptserve-Cache":    "query",
			} {
				if got := h.Get(name); got != want {
					t.Errorf("%s canonical=%v: %s %q on a doc-served reply, want %q", spec, canonical, name, got, want)
				}
			}
		}
	}
}

// TestDocServedAfterMutate: without live views, a publish after each
// /mutate returns the post-delta golden, first from a run (the new
// version has no document) and then from the new version's document.
func TestDocServedAfterMutate(t *testing.T) {
	s, ts := newMutateServer(t)
	defer ts.Close()
	defer s.Close()
	spec, dbSrc := exampleSources(t)
	body := `{"spec":"tau1","db":"registrar"}`
	publishDocBody(t, ts, body)
	for step, op := range []string{"insert", "delete", "insert"} {
		mutateOK(t, ts, mutateBody(op))
		db := dbSrc
		if op == "insert" {
			db = withStormTuple(dbSrc)
		}
		want := testutil.Golden(t, spec, db, false)
		for i, wantDoc := range []bool{false, true} {
			if _, got, fromDoc := publishDocBody(t, ts, body); fromDoc != wantDoc || !bytes.Equal(got, want) {
				t.Fatalf("step %d publish %d: from doc %v (want %v), post-delta golden match %v",
					step, i, fromDoc, wantDoc, bytes.Equal(got, want))
			}
		}
	}
}

// TestDocServedIneligible: inject, each non-timeout limit and cache off
// neither fill a document nor read the one a plain publish stored; a
// timeout alone does read it.
func TestDocServedIneligible(t *testing.T) {
	store, err := supervise.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{AllowInject: true, Store: store})
	want := testutil.Golden(t, tinySpec, tinyDB, false)
	plain := `{"spec":"tiny","db":"tinydb"}`
	ineligible := func(pass string) {
		t.Helper()
		for _, c := range []struct{ name, body string }{
			{"inject", `{"spec":"tiny","db":"tinydb","inject":{"seed":1,"probs":{"query":0}}}`},
			{"max_nodes", `{"spec":"tiny","db":"tinydb","limits":{"max_nodes":100}}`},
			{"max_depth", `{"spec":"tiny","db":"tinydb","limits":{"max_depth":100}}`},
			{"max_queries", `{"spec":"tiny","db":"tinydb","limits":{"max_queries":100}}`},
			{"cache off", `{"spec":"tiny","db":"tinydb","cache":"off"}`},
		} {
			if _, got, fromDoc := publishDocBody(t, ts, c.body); fromDoc || !bytes.Equal(got, want) {
				t.Errorf("%s %s: from doc %v, golden match %v", pass, c.name, fromDoc, bytes.Equal(got, want))
			}
		}
	}
	ineligible("before")
	if v := currentVersion(t, s, "tiny", "tinydb"); v.docs != [2]*document{} {
		t.Fatal("an ineligible publish stored a document")
	}
	if _, _, fromDoc := publishDocBody(t, ts, plain); fromDoc {
		t.Fatal("the first plain publish was served from a document")
	}
	if v := currentVersion(t, s, "tiny", "tinydb"); v.docs[0] == nil {
		t.Fatal("the plain publish stored no document")
	}
	ineligible("after")
	if _, got, fromDoc := publishDocBody(t, ts, `{"spec":"tiny","db":"tinydb","limits":{"timeout_ms":5000}}`); !fromDoc || !bytes.Equal(got, want) {
		t.Errorf("timeout only: from doc %v, golden match %v", fromDoc, bytes.Equal(got, want))
	}
}

// counterSpec diverges (Proposition 1(4)): over counterDB no run
// finishes within a test's timeout.
const counterSpec = `
schema counter/3, add/5, next/2
transducer counter root r start q0
tag a/3
rule q0 r -> (q, a, [;k,d,c] counter(k,d,c)), (q, a, [;k,d,c] counter(k,d,c))
rule q a ->
  (q, a, [;k,d,c] exists d1,c1,kp,d2,c2,d3,c3 .
    Reg(k,d1,c1) & Reg(kp,d2,c2) & next(kp,k) & counter(k,d3,c3) & add(d1,c2,c3,d,c)),
  (q, a, [;k,d,c] exists d1,c1,kp,d2,c2,d3,c3 .
    Reg(k,d1,c1) & Reg(kp,d2,c2) & next(kp,k) & counter(k,d3,c3) & add(d1,c2,c3,d,c))
`

func counterDB(n int) string {
	var b strings.Builder
	for k := range n {
		carry := 0
		if k == 0 {
			carry = 1
		}
		fmt.Fprintf(&b, "counter(%d, 0, %d)\nnext(%d, %d)\n", k, carry, k, (k+1)%n)
	}
	for _, row := range []string{"0,0,0,0,0", "0,0,1,1,0", "0,1,0,1,0", "0,1,1,0,1",
		"1,0,0,1,0", "1,0,1,0,1", "1,1,0,0,1", "1,1,1,1,1"} {
		fmt.Fprintf(&b, "add(%s)\n", row)
	}
	return b.String()
}

// TestDocServedNotStored: a failed run stores nothing, and a document
// longer than maxPooledRender is served but not stored, so its version
// keeps its memo.
func TestDocServedNotStored(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.reg.RegisterSpec("counter", counterSpec); err != nil {
		t.Fatal(err)
	}
	if err := s.reg.RegisterDB("counterdb", counterDB(6)); err != nil {
		t.Fatal(err)
	}
	before := currentVersion(t, s, "counter", "counterdb")
	if status, _, body := post(t, ts, `{"spec":"counter","db":"counterdb","limits":{"timeout_ms":50}}`); status == http.StatusOK {
		t.Fatalf("the divergent publish succeeded: %.80s", body)
	}
	if after := currentVersion(t, s, "counter", "counterdb"); after != before {
		t.Fatal("a failed run changed the version's memo or documents")
	}

	// Each item renders to more than 100 bytes; 12,000 of them pass the cap.
	var db strings.Builder
	for i := range 12000 {
		fmt.Fprintf(&db, "R(%s%06d)\n", strings.Repeat("v", 100), i)
	}
	if err := s.reg.RegisterDB("bigdb", db.String()); err != nil {
		t.Fatal(err)
	}
	want := testutil.Golden(t, tinySpec, db.String(), false)
	if len(want) <= maxPooledRender {
		t.Fatalf("the big document is %d bytes, not over the %d-byte cap", len(want), maxPooledRender)
	}
	before = currentVersion(t, s, "tiny", "bigdb")
	for i := range 2 {
		if _, got, fromDoc := publishDocBody(t, ts, `{"spec":"tiny","db":"bigdb"}`); fromDoc || !bytes.Equal(got, want) {
			t.Fatalf("big publish %d: from doc %v, golden match %v", i, fromDoc, bytes.Equal(got, want))
		}
	}
	if after := currentVersion(t, s, "tiny", "bigdb"); after != before {
		t.Fatal("a document over the cap was stored or released the version's memo")
	}
}

// TestDocServedReleasesMemo: storing a document empties the version's
// memo; a canonical publish then runs once, cold, and stores its own
// document.
func TestDocServedReleasesMemo(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	warm := currentVersion(t, s, "tiny", "tinydb")
	publishDocBody(t, ts, `{"spec":"tiny","db":"tinydb"}`)
	if hits, misses, _ := warm.memo.Stats(); hits+misses == 0 {
		t.Fatal("the first run did not use the version's memo")
	}
	v := currentVersion(t, s, "tiny", "tinydb")
	if v.inst != warm.inst || v.docs[0] == nil || v.docs[1] != nil {
		t.Fatalf("after an XML publish: same instance %v, docs %v", v.inst == warm.inst, v.docs)
	}
	if hits, misses, _ := v.memo.Stats(); v.memo == warm.memo || hits+misses != 0 {
		t.Fatalf("the memo was not released: same memo %v, %d hits, %d misses", v.memo == warm.memo, hits, misses)
	}

	canon := `{"spec":"tiny","db":"tinydb","canonical":true}`
	want := testutil.Golden(t, tinySpec, tinyDB, true)
	h, got, fromDoc := publishDocBody(t, ts, canon)
	if fromDoc || !bytes.Equal(got, want) {
		t.Fatalf("first canonical publish: from doc %v, golden match %v", fromDoc, bytes.Equal(got, want))
	}
	if h.Get("X-Ptserve-Queries") == "0" {
		t.Error("the first canonical publish ran no queries over the released memo")
	}
	if v := currentVersion(t, s, "tiny", "tinydb"); v.docs[1] == nil {
		t.Fatal("the canonical publish stored no document")
	}
	if _, got, fromDoc := publishDocBody(t, ts, canon); !fromDoc || !bytes.Equal(got, want) {
		t.Fatalf("repeat canonical publish: from doc %v, golden match %v", fromDoc, bytes.Equal(got, want))
	}
}

// TestDocServedRacingMutates: publishes racing a writer that toggles one
// tuple each return the golden of a version some write left, before or
// after, never torn and never another version's document.
func TestDocServedRacingMutates(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, Queue: 64})
	goldens := map[bool][][]byte{}
	for _, canonical := range []bool{false, true} {
		goldens[canonical] = [][]byte{
			testutil.Golden(t, tinySpec, tinyDB, canonical),
			testutil.Golden(t, tinySpec, tinyDB+"R(d)\n", canonical),
		}
	}
	const writes, readers, reads = 20, 4, 30
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			canonical := r%2 == 1
			body := fmt.Sprintf(`{"spec":"tiny","db":"tinydb","canonical":%v}`, canonical)
			for range reads {
				status, _, got := post(t, ts, body)
				if status != http.StatusOK {
					t.Errorf("publish: status %d: %s", status, got)
					return
				}
				if !bytes.Equal(got, goldens[canonical][0]) && !bytes.Equal(got, goldens[canonical][1]) {
					t.Errorf("canonical=%v: bytes of no version: %q", canonical, got)
					return
				}
			}
		}()
	}
	for i := range writes {
		op := "insert"
		if i%2 == 1 {
			op = "delete"
		}
		mutateOK(t, ts, tinyMutate(op, "d"))
	}
	wg.Wait()
}

// TestDocServedDroppedWithHistory: a supersede (database.apply) and AttachWAL
// replace the pair's versions, so the documents stored on them are never
// served again.
func TestDocServedDroppedWithHistory(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	plain := `{"spec":"tiny","db":"tinydb"}`
	repeat := func(stage, db string) {
		t.Helper()
		want := testutil.Golden(t, tinySpec, db, false)
		for i, wantDoc := range []bool{false, true} {
			if _, got, fromDoc := publishDocBody(t, ts, plain); fromDoc != wantDoc || !bytes.Equal(got, want) {
				t.Fatalf("%s publish %d: from doc %v (want %v), golden match %v", stage, i, fromDoc, wantDoc, bytes.Equal(got, want))
			}
		}
	}
	sendRec := func(seq, epoch uint64, val string) {
		t.Helper()
		body := fmt.Sprintf(`{"db":"tinydb","records":[{"seq":%d,"epoch":%d,"ops":[{"op":"insert","rel":"R","tuple":[%q]}]}]}`, seq, epoch, val)
		if resp, raw := postJSON(t, ts.Client(), ts.URL+"/replicate", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("replicate seq %d: status %d: %s", seq, resp.StatusCode, raw)
		}
	}
	sendRec(1, 1, "d")
	repeat("before the supersede", tinyDB+"R(d)\n")
	sendRec(1, 2, "e")
	repeat("after the supersede", tinyDB+"R(e)\n")

	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(wal.Record{DB: "tinydb", Seq: 2, Epoch: 2, Delta: (&relation.Delta{}).Insert("R", "f")}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// AttachWAL replays what Open recovered.
	l, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s.reg.AttachWAL(l)
	repeat("after AttachWAL", tinyDB+"R(e)\nR(f)\n")
}

// TestDocServedFlightRendersOnce: the members of one flight share one
// rendering per output form, and the XML one is stored on the version
// the flight's run resolved.
func TestDocServedFlightRendersOnce(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	adm, err := s.validate(publishRequest{Spec: "tiny", DB: "tinydb"})
	if err != nil {
		t.Fatal(err)
	}
	tr, v, err := s.reg.version("tiny", "tinydb")
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := s.flights.do(context.Background(), adm.key, func(f *flight) {
		f.inst = v.inst
		f.res, f.attempts, f.resumed, f.err = s.execute(tr, v.inst, adm)
	})
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]*document, 4)
	var wg sync.WaitGroup
	for i := range docs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			docs[i] = s.fill(tr, f, adm)
		}()
	}
	wg.Wait()
	for _, d := range docs[1:] {
		if d != docs[0] {
			t.Fatal("members of one flight rendered separate documents")
		}
	}
	if !bytes.Equal(docs[0].body, testutil.Golden(t, tinySpec, tinyDB, false)) {
		t.Fatal("the shared document is not the golden")
	}
	if got := currentVersion(t, s, "tiny", "tinydb").docs[0]; got != docs[0] {
		t.Fatal("the shared document was not stored on the version")
	}
}

// TestDocServedReadAfterWrite: with live views open on τ1, τ2v and τ3,
// the first publish after each /mutate is served from the view and
// stores its render on the new version, so the second is served from
// that document; both in XML and canonical form return the post-delta
// golden with a forced run's node count and no queries.
func TestDocServedReadAfterWrite(t *testing.T) {
	s, ts := newMutateServer(t)
	defer ts.Close()
	defer s.Close()
	_, dbSrc := exampleSources(t)
	specs := []string{"tau1", "tau2v", "tau3"}
	for _, spec := range specs {
		openView(t, ts, spec, "registrar")
	}
	for step, op := range []string{"insert", "delete", "insert"} {
		mutateOK(t, ts, mutateBody(op))
		db := dbSrc
		if op == "insert" {
			db = withStormTuple(dbSrc)
		}
		for _, spec := range specs {
			src, err := os.ReadFile("../../examples/specs/" + spec + ".pt")
			if err != nil {
				t.Fatal(err)
			}
			for _, canonical := range []bool{false, true} {
				want := testutil.Golden(t, string(src), db, canonical)
				body := fmt.Sprintf(`{"spec":%q,"db":"registrar","canonical":%v}`, spec, canonical)
				docs := docServed(t, ts)
				vh, got, fromView := publishVia(t, ts, body)
				if !fromView || docServed(t, ts) != docs || !bytes.Equal(got, want) {
					t.Fatalf("step %d %s canonical=%v: first publish from view %v, doc_served moved %v, golden match %v",
						step, spec, canonical, fromView, docServed(t, ts) != docs, bytes.Equal(got, want))
				}
				views := viewServed(t, ts)
				dh, got, fromDoc := publishDocBody(t, ts, body)
				if !fromDoc || viewServed(t, ts) != views || !bytes.Equal(got, want) {
					t.Fatalf("step %d %s canonical=%v: second publish from doc %v, view_served moved %v, golden match %v",
						step, spec, canonical, fromDoc, viewServed(t, ts) != views, bytes.Equal(got, want))
				}
				forced := fmt.Sprintf(`{"spec":%q,"db":"registrar","canonical":%v,"limits":{"max_depth":1000}}`, spec, canonical)
				fh, fgot, fromDoc := publishDocBody(t, ts, forced)
				if fromDoc || !bytes.Equal(fgot, want) {
					t.Fatalf("step %d %s canonical=%v: forced run from doc %v, golden match %v", step, spec, canonical, fromDoc, bytes.Equal(fgot, want))
				}
				for i, h := range []http.Header{vh, dh} {
					if n, fn := h.Get("X-Ptserve-Nodes"), fh.Get("X-Ptserve-Nodes"); n != fn {
						t.Errorf("step %d %s canonical=%v publish %d: X-Ptserve-Nodes %s, a run's %s", step, spec, canonical, i+1, n, fn)
					}
					if q := h.Get("X-Ptserve-Queries"); q != "0" {
						t.Errorf("step %d %s canonical=%v publish %d: X-Ptserve-Queries %q, want 0", step, spec, canonical, i+1, q)
					}
				}
			}
		}
	}
}

// runKeyed is a publish of body stamped with the handoff headers, the
// way a coordinator forwards it.
func runKeyed(t *testing.T, ts *httptest.Server, body, runKey string, epoch uint64) *http.Request {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/publish", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderRunKey, runKey)
	req.Header.Set(HeaderEpoch, strconv.FormatUint(epoch, 10))
	return req
}

// TestDocServedRunKey: on a server with a store, a run key changes
// nothing for a publish its version answers. Such a publish is served
// from the document a plain publish stored, and leaves the checkpoint a
// failed run left under its key in place. On a fresh version it runs
// and fills the document that then answers a plain publish.
func TestDocServedRunKey(t *testing.T) {
	store, err := supervise.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Store: store, CheckpointEvery: 1})
	plain := `{"spec":"tiny","db":"tinydb"}`
	status, _, body := postAs(t, ts, `{"spec":"tiny","db":"tinydb","limits":{"max_nodes":3}}`, "left", 1)
	if info := decodeError(t, status, body); info.Kind != KindBudget {
		t.Fatalf("budgeted run: kind %q, want %q", info.Kind, KindBudget)
	}

	want := testutil.Golden(t, tinySpec, tinyDB, false)
	if _, got, fromDoc := publishDocBody(t, ts, plain); fromDoc || !bytes.Equal(got, want) {
		t.Fatalf("plain publish: from doc %v, golden match %v", fromDoc, bytes.Equal(got, want))
	}
	h, got, fromDoc := publishDoc(t, ts, runKeyed(t, ts, plain, "left", 2))
	if !fromDoc || !bytes.Equal(got, want) || h.Get("X-Ptserve-Resumed") != "" {
		t.Fatalf("run-key publish of a stored version: from doc %v, golden match %v, resumed header %q",
			fromDoc, bytes.Equal(got, want), h.Get("X-Ptserve-Resumed"))
	}
	if snap, epoch, err := store.Load("left"); err != nil || snap == nil || epoch != 1 {
		t.Fatalf("a document answer changed the checkpoint under its key: snapshot %v, epoch %d, err %v", snap != nil, epoch, err)
	}

	mutateOK(t, ts, tinyMutate("insert", "d"))
	want = testutil.Golden(t, tinySpec, tinyDB+"R(d)\n", false)
	h, got, fromDoc = publishDoc(t, ts, runKeyed(t, ts, plain, "fresh", 1))
	if fromDoc || !bytes.Equal(got, want) || h.Get("X-Ptserve-Resumed") != "false" {
		t.Fatalf("run-key publish of a fresh version: from doc %v, golden match %v, resumed header %q",
			fromDoc, bytes.Equal(got, want), h.Get("X-Ptserve-Resumed"))
	}
	if _, got, fromDoc := publishDocBody(t, ts, plain); !fromDoc || !bytes.Equal(got, want) {
		t.Fatalf("plain publish after the run-key run: from doc %v, golden match %v", fromDoc, bytes.Equal(got, want))
	}
}

// TestDocServedResumedRun: a run-key publish of τ1 over registrar that
// resumes a predecessor's checkpoint keeps the same document, in bytes
// and in X-Ptserve-Nodes, as a fresh run keeps, in XML and canonical
// form.
func TestDocServedResumedRun(t *testing.T) {
	newServer := func(store supervise.CheckpointStore) *httptest.Server {
		reg := NewRegistry()
		if err := reg.LoadDir("../../examples/specs"); err != nil {
			t.Fatal(err)
		}
		_, ts := newTestServer(t, Config{Registry: reg, Store: store, CheckpointEvery: 1})
		return ts
	}
	for _, canonical := range []bool{false, true} {
		body := fmt.Sprintf(`{"spec":"tau1","db":"registrar","canonical":%v}`, canonical)
		fresh := newServer(nil)
		publishDocBody(t, fresh, body)
		fh, want, fromDoc := publishDocBody(t, fresh, body)
		if !fromDoc {
			t.Fatalf("canonical=%v: the fresh run kept no document", canonical)
		}

		store, err := supervise.NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		ts := newServer(store)
		budgeted := fmt.Sprintf(`{"spec":"tau1","db":"registrar","canonical":%v,"limits":{"max_nodes":40}}`, canonical)
		status, _, raw := postAs(t, ts, budgeted, "resume", 1)
		if info := decodeError(t, status, raw); info.Kind != KindBudget {
			t.Fatalf("canonical=%v: budgeted run: kind %q, want %q", canonical, info.Kind, KindBudget)
		}
		rh, got, fromDoc := publishDoc(t, ts, runKeyed(t, ts, body, "resume", 2))
		if fromDoc || rh.Get("X-Ptserve-Resumed") != "true" || !bytes.Equal(got, want) {
			t.Fatalf("canonical=%v: run-key publish: from doc %v, resumed header %q, fresh bytes %v",
				canonical, fromDoc, rh.Get("X-Ptserve-Resumed"), bytes.Equal(got, want))
		}
		dh, got, fromDoc := publishDocBody(t, ts, body)
		if !fromDoc || !bytes.Equal(got, want) {
			t.Fatalf("canonical=%v: publish after the resumed run: from doc %v, fresh bytes %v", canonical, fromDoc, bytes.Equal(got, want))
		}
		for name, h := range map[string]http.Header{"resumed run": rh, "its document": dh} {
			if n, fn := h.Get("X-Ptserve-Nodes"), fh.Get("X-Ptserve-Nodes"); n != fn {
				t.Errorf("canonical=%v: %s: X-Ptserve-Nodes %s, a fresh run's document %s", canonical, name, n, fn)
			}
		}
	}
}

// TestDocServedUnderOverload: with the only worker held by a diverging
// run and no queue, a publish its version's document answers gets the
// golden bytes without taking a worker, while a publish of a version
// with no document is still shed.
func TestDocServedUnderOverload(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 0})
	if err := s.reg.RegisterSpec("counter", counterSpec); err != nil {
		t.Fatal(err)
	}
	if err := s.reg.RegisterDB("counterdb", counterDB(6)); err != nil {
		t.Fatal(err)
	}
	if err := s.reg.RegisterDB("otherdb", tinyDB+"R(z)\n"); err != nil {
		t.Fatal(err)
	}
	plain := `{"spec":"tiny","db":"tinydb"}`
	want := testutil.Golden(t, tinySpec, tinyDB, false)
	publishDocBody(t, ts, plain)

	done := make(chan struct{})
	go func() {
		defer close(done)
		if status, _, body := post(t, ts, `{"spec":"counter","db":"counterdb","limits":{"timeout_ms":1000}}`); status == http.StatusOK {
			t.Errorf("the divergent publish succeeded: %.80s", body)
		}
	}()
	for s.adm.Active() == 0 {
		time.Sleep(time.Millisecond)
	}
	m := s.Metrics()
	if _, got, fromDoc := publishDocBody(t, ts, plain); !fromDoc || !bytes.Equal(got, want) {
		t.Errorf("stored version under overload: from doc %v, golden match %v", fromDoc, bytes.Equal(got, want))
	}
	status, _, body := post(t, ts, `{"spec":"tiny","db":"otherdb"}`)
	if info := decodeError(t, status, body); info.Kind != KindOverloaded {
		t.Errorf("version without a document under overload: kind %q, want %q", info.Kind, KindOverloaded)
	}
	after := s.Metrics()
	if after.Admitted != m.Admitted || after.Succeeded != m.Succeeded+1 || after.Shed != m.Shed+1 {
		t.Errorf("admitted %d → %d, succeeded %d → %d, shed %d → %d; want unchanged, +1, +1",
			m.Admitted, after.Admitted, m.Succeeded, after.Succeeded, m.Shed, after.Shed)
	}
	<-done
}

// TestDocServedDraining: a draining server refuses a publish its
// version's document would answer.
func TestDocServedDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	plain := `{"spec":"tiny","db":"tinydb"}`
	publishDocBody(t, ts, plain)
	if v := currentVersion(t, s, "tiny", "tinydb"); v.docs[0] == nil {
		t.Fatal("the plain publish stored no document")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	status, _, body := post(t, ts, plain)
	if info := decodeError(t, status, body); info.Kind != KindDraining {
		t.Fatalf("draining server: kind %q, want %q", info.Kind, KindDraining)
	}
}

// TestDocServedRunKeyAllocs: on a server with a store, a doc-served
// publish of τ1 over registrar that carries a run key and an epoch
// allocates at most 1.5× what a plain doc-served one does. The same
// publish run in full allocates about thirty times as many.
func TestDocServedRunKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	store, err := supervise.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.LoadDir("../../examples/specs"); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Registry: reg, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	publish := func(runKey string) {
		req := httptest.NewRequest(http.MethodPost, "/publish", strings.NewReader(`{"spec":"tau1","db":"registrar"}`))
		if runKey != "" {
			req.Header.Set(HeaderRunKey, runKey)
			req.Header.Set(HeaderEpoch, "1")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("publish: status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	publish("")
	served := s.Metrics().DocServed
	const runs = 50
	plain := testing.AllocsPerRun(runs, func() { publish("") })
	keyed := testing.AllocsPerRun(runs, func() { publish("allocs") })
	if got := s.Metrics().DocServed - served; got != 2*(runs+1) {
		t.Fatalf("%d of %d publishes were doc-served", got, 2*(runs+1))
	}
	t.Logf("doc-served publish: %.0f allocations plain, %.0f with a run key", plain, keyed)
	if keyed > 1.5*plain {
		t.Errorf("a doc-served run-key publish allocates %.0f, over 1.5× a plain one's %.0f", keyed, plain)
	}
}
