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
	"strings"
	"sync"
	"testing"

	"ptx/internal/relation"
	"ptx/internal/supervise"
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
			want := goldenXML(t, string(src), dbSrc, canonical)
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
		want := goldenXML(t, spec, db, false)
		for i, wantDoc := range []bool{false, true} {
			if _, got, fromDoc := publishDocBody(t, ts, body); fromDoc != wantDoc || !bytes.Equal(got, want) {
				t.Fatalf("step %d publish %d: from doc %v (want %v), post-delta golden match %v",
					step, i, fromDoc, wantDoc, bytes.Equal(got, want))
			}
		}
	}
}

// TestDocServedIneligible: inject, each non-timeout limit, cache off and
// a run key on a server with a store neither fill a document nor read
// the one a plain publish stored; a timeout alone does read it.
func TestDocServedIneligible(t *testing.T) {
	store, err := supervise.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{AllowInject: true, Store: store})
	want := goldenXML(t, tinySpec, tinyDB, false)
	plain := `{"spec":"tiny","db":"tinydb"}`
	ineligible := func(pass string) {
		t.Helper()
		for _, c := range []struct{ name, body string }{
			{"inject", `{"spec":"tiny","db":"tinydb","inject":{"seed":1,"probs":{"query":0}}}`},
			{"max_nodes", `{"spec":"tiny","db":"tinydb","limits":{"max_nodes":100}}`},
			{"max_depth", `{"spec":"tiny","db":"tinydb","limits":{"max_depth":100}}`},
			{"max_queries", `{"spec":"tiny","db":"tinydb","limits":{"max_queries":100}}`},
			{"cache off", `{"spec":"tiny","db":"tinydb","cache":"off"}`},
			{"run key", plain},
		} {
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/publish", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			if c.name == "run key" {
				req.Header.Set(HeaderRunKey, "doc-"+pass)
				req.Header.Set(HeaderEpoch, "1")
			}
			if _, got, fromDoc := publishDoc(t, ts, req); fromDoc || !bytes.Equal(got, want) {
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
	want := goldenXML(t, tinySpec, db.String(), false)
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
	want := goldenXML(t, tinySpec, tinyDB, true)
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
			goldenXML(t, tinySpec, tinyDB, canonical),
			goldenXML(t, tinySpec, tinyDB+"R(d)\n", canonical),
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

// TestDocServedDroppedWithHistory: a supersede (applyAtLocked) and AttachWAL
// replace the pair's versions, so the documents stored on them are never
// served again.
func TestDocServedDroppedWithHistory(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	plain := `{"spec":"tiny","db":"tinydb"}`
	repeat := func(stage, db string) {
		t.Helper()
		want := goldenXML(t, tinySpec, db, false)
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

	l, err := wal.Open(t.TempDir(), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(wal.Record{DB: "tinydb", Seq: 2, Epoch: 2, Delta: (&relation.Delta{}).Insert("R", "f")}); err != nil {
		t.Fatal(err)
	}
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
	if !bytes.Equal(docs[0].body, goldenXML(t, tinySpec, tinyDB, false)) {
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
				want := goldenXML(t, string(src), db, canonical)
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
