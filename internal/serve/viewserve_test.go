// View-served publishes: a servable publish whose version has no stored
// document, and whose (spec, db) has a live view reading the instance
// version it resolved, is answered from the view's tree; every other
// publish without a document runs. These tests read the
// view_served counter on /healthz to tell which path answered.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"ptx/internal/incr"
	"ptx/internal/pt"
	"ptx/internal/supervise"
	"ptx/internal/testutil"
)

// viewServed reads the view_served counter from /healthz.
func viewServed(t *testing.T, ts *httptest.Server) int64 {
	t.Helper()
	var h struct {
		Metrics Metrics `json:"metrics"`
	}
	if code := getJSON(t, ts.Client(), ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	return h.Metrics.ViewServed
}

// publishVia posts a publish and reports its headers, its body and
// whether the view answered it (view_served moved by one; anything
// else fails the test).
func publishVia(t *testing.T, ts *httptest.Server, body string) (http.Header, []byte, bool) {
	t.Helper()
	before := viewServed(t, ts)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/publish", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return doPublish(t, ts, req, before)
}

func doPublish(t *testing.T, ts *httptest.Server, req *http.Request, before int64) (http.Header, []byte, bool) {
	t.Helper()
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
	switch d := viewServed(t, ts) - before; d {
	case 0, 1:
		return resp.Header, buf.Bytes(), d == 1
	default:
		t.Fatalf("view_served moved by %d over one publish", d)
		return nil, nil, false
	}
}

// openView opens the live view over (spec, db) through /watch.
func openView(t *testing.T, ts *httptest.Server, spec, db string) {
	t.Helper()
	var wr watchResponse
	url := fmt.Sprintf("%s/watch?spec=%s&db=%s", ts.URL, spec, db)
	if code := getJSON(t, ts.Client(), url, &wr); code != http.StatusOK {
		t.Fatalf("opening the %s/%s view: status %d", spec, db, code)
	}
}

func mutateOK(t *testing.T, ts *httptest.Server, body string) mutateResponse {
	t.Helper()
	resp, raw := postJSON(t, ts.Client(), ts.URL+"/mutate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: status %d: %s", resp.StatusCode, raw)
	}
	var mr mutateResponse
	if err := json.Unmarshal(raw, &mr); err != nil {
		t.Fatal(err)
	}
	return mr
}

// TestViewServedReadYourWrite: with live views open on τ1, τ2v and τ3,
// a publish right after each /mutate returns the post-delta golden in
// XML and canonical form from the view, with X-Ptserve-Queries 0 and the
// X-Ptserve-Nodes a forced run reports.
func TestViewServedReadYourWrite(t *testing.T) {
	s, ts := newMutateServer(t)
	defer ts.Close()
	defer s.Close()
	_, dbSrc := exampleSources(t)
	specs := []string{"tau1", "tau2v", "tau3"}
	for _, spec := range specs {
		openView(t, ts, spec, "registrar")
	}
	for step, op := range []string{"insert", "delete", "insert"} {
		mr := mutateOK(t, ts, mutateBody(op))
		if len(mr.Views) != len(specs) {
			t.Fatalf("step %d: %d view reports, want %d", step, len(mr.Views), len(specs))
		}
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
				h, got, fromView := publishVia(t, ts, body)
				if !fromView {
					t.Fatalf("step %d %s canonical=%v: the publish ran instead of reading the view", step, spec, canonical)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("step %d %s canonical=%v: view-served bytes differ from the post-delta golden\n got %q\nwant %q",
						step, spec, canonical, got, want)
				}
				if q := h.Get("X-Ptserve-Queries"); q != "0" {
					t.Errorf("step %d %s: X-Ptserve-Queries %q on a view-served reply, want 0", step, spec, q)
				}
				forced := fmt.Sprintf(`{"spec":%q,"db":"registrar","canonical":%v,"limits":{"max_depth":1000}}`, spec, canonical)
				fh, fgot, fromView := publishVia(t, ts, forced)
				if fromView || !bytes.Equal(fgot, want) {
					t.Fatalf("step %d %s: forced run: from view %v, golden match %v", step, spec, fromView, bytes.Equal(fgot, want))
				}
				if n, fn := h.Get("X-Ptserve-Nodes"), fh.Get("X-Ptserve-Nodes"); n != fn {
					t.Errorf("step %d %s: X-Ptserve-Nodes %s from the view, %s from a run", step, spec, n, fn)
				}
			}
		}
	}
}

// tinySSpec reads S, which tiny's schema lacks, over tinydb.
const tinySSpec = `
schema R/1, S/1
transducer tinys root db start q0
tag item/1, text/1
rule q0 db -> (q1, item, [x;] S(x))
rule q1 item -> (q2, text, [x;] Reg(x))
rule q2 text -> .
`

// TestViewServedFallbacks: each request or view state the view cannot
// answer for takes the run path and still returns the golden bytes.
func TestViewServedFallbacks(t *testing.T) {
	store, err := supervise.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{AllowInject: true, Store: store})
	if err := s.reg.RegisterSpec("tinys", tinySSpec); err != nil {
		t.Fatal(err)
	}
	openView(t, ts, "tiny", "tinydb")
	want := testutil.Golden(t, tinySpec, tinyDB, false)
	plain := `{"spec":"tiny","db":"tinydb"}`
	if _, got, fromView := publishVia(t, ts, plain); !fromView || !bytes.Equal(got, want) {
		t.Fatalf("plain publish: from view %v, golden match %v", fromView, bytes.Equal(got, want))
	}

	for _, c := range []struct{ name, body string }{
		{"inject", `{"spec":"tiny","db":"tinydb","inject":{"seed":1,"probs":{"query":0}}}`},
		{"max_nodes", `{"spec":"tiny","db":"tinydb","limits":{"max_nodes":100}}`},
		{"max_depth", `{"spec":"tiny","db":"tinydb","limits":{"max_depth":100}}`},
		{"max_queries", `{"spec":"tiny","db":"tinydb","limits":{"max_queries":100}}`},
		{"cache off", `{"spec":"tiny","db":"tinydb","cache":"off"}`},
	} {
		if _, got, fromView := publishVia(t, ts, c.body); fromView || !bytes.Equal(got, want) {
			t.Errorf("%s: from view %v, golden match %v", c.name, fromView, bytes.Equal(got, want))
		}
	}
	// A timeout alone keeps the view path. The plain publish stored the
	// XML document its render made, so this one asks for canonical form.
	if _, _, fromView := publishVia(t, ts, `{"spec":"tiny","db":"tinydb","canonical":true,"limits":{"timeout_ms":5000}}`); !fromView {
		t.Error("a request setting only a timeout ran instead of reading the view")
	}

	// A run key changes nothing for a publish its version answers: the
	// document the plain publish's render stored answers it, and no
	// handoff run starts.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/publish", strings.NewReader(plain))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderRunKey, "view-fallback")
	req.Header.Set(HeaderEpoch, "1")
	stored := docServed(t, ts)
	if h, got, fromView := doPublish(t, ts, req, viewServed(t, ts)); fromView || docServed(t, ts) != stored+1 || !bytes.Equal(got, want) || h.Get("X-Ptserve-Resumed") != "" {
		t.Errorf("run key: from view %v, doc-served %v, golden match %v, resumed header %q",
			fromView, docServed(t, ts) == stored+1, bytes.Equal(got, want), h.Get("X-Ptserve-Resumed"))
	}

	// A delta tiny's schema rejects leaves tiny's version, and the view
	// reading it, where they were: the view still holds τ(inst), and the
	// document its first render stored answers the publish. The view
	// over tinys, whose schema takes the delta, keeps serving.
	openView(t, ts, "tinys", "tinydb")
	mutateOK(t, ts, `{"spec":"tinys","db":"tinydb","ops":[{"op":"insert","rel":"S","tuple":["z"]}]}`)
	_, cur, _, err := s.reg.Pair("tiny", "tinydb")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, vinst, rerr := s.liveView("tiny", "tinydb").view.Render(io.Discard, false); rerr != nil || vinst != cur {
		t.Errorf("schema-rejected delta: the view reads the current version %v, render error %v", vinst == cur, rerr)
	}
	docs := docServed(t, ts)
	if _, got, fromView := publishVia(t, ts, plain); fromView || docServed(t, ts) != docs+1 || !bytes.Equal(got, want) {
		t.Errorf("schema-rejected delta: from view %v, doc-served %v, golden match %v",
			fromView, docServed(t, ts) == docs+1, bytes.Equal(got, want))
	}
	wantS := testutil.Golden(t, tinySSpec, tinyDB+"S(z)\n", false)
	if _, got, fromView := publishVia(t, ts, `{"spec":"tinys","db":"tinydb"}`); !fromView || !bytes.Equal(got, wantS) {
		t.Errorf("tinys after its delta: from view %v, golden match %v", fromView, bytes.Equal(got, wantS))
	}
	// The next delta tiny takes moves its version, and the view repaired
	// to it serves it.
	mutateOK(t, ts, tinyMutate("insert", "d"))
	want = testutil.Golden(t, tinySpec, tinyDB+"R(d)\n", false)
	if _, got, fromView := publishVia(t, ts, plain); !fromView || !bytes.Equal(got, want) {
		t.Errorf("after a repair: from view %v, golden match %v", fromView, bytes.Equal(got, want))
	}
}

// TestViewServedBrokenView: a view whose repair failed is broken, and
// it cannot serve even though it reads the very version the publish
// resolved: the publish runs and returns the post-delta golden.
func TestViewServedBrokenView(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	tr, inst, _, err := s.reg.Pair("tiny", "tinydb")
	if err != nil {
		t.Fatal(err)
	}
	// A repaired tree is bounded by the node budget as a run's is, and
	// the base tree just meets this one, so an insert breaks the view.
	base, err := tr.Run(inst, pt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := incr.NewView(context.Background(), tr, inst, incr.Options{
		Run: pt.Options{MaxNodes: base.Stats.Nodes},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.reg.db("tinydb")
	if err != nil {
		t.Fatal(err)
	}
	d.w.Lock()
	s.views.Store(pairKey{"tiny", "tinydb"}, &liveView{spec: "tiny", db: "tinydb", view: v})
	d.w.Unlock()
	plain := `{"spec":"tiny","db":"tinydb"}`
	if _, _, fromView := publishVia(t, ts, plain); !fromView {
		t.Fatal("the installed view did not serve before the delta")
	}

	mr := mutateOK(t, ts, tinyMutate("insert", "d"))
	if len(mr.Views) != 1 || mr.Views[0].Error == "" {
		t.Fatalf("view reports %+v, want one failed repair", mr.Views)
	}
	_, cur, _, err := s.reg.Pair("tiny", "tinydb")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, vinst, rerr := v.Render(io.Discard, false); !errors.Is(rerr, incr.ErrBroken) || vinst != cur {
		t.Fatalf("after the failed repair: render error %v, reads the resolved version %v", rerr, vinst == cur)
	}
	want := testutil.Golden(t, tinySpec, tinyDB+"R(d)\n", false)
	if _, got, fromView := publishVia(t, ts, plain); fromView || !bytes.Equal(got, want) {
		t.Errorf("broken view: from view %v, golden match %v", fromView, bytes.Equal(got, want))
	}
}

// TestViewServedAfterSupersede: after a replicated record supersedes
// local history (database.apply), the resynced view mirrors the
// re-resolved pair and serves the reconciled bytes.
func TestViewServedAfterSupersede(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	openView(t, ts, "tiny", "tinydb")
	sendRec := func(seq, epoch uint64, val string) {
		t.Helper()
		body := fmt.Sprintf(`{"db":"tinydb","records":[{"seq":%d,"epoch":%d,"ops":[{"op":"insert","rel":"R","tuple":[%q]}]}]}`, seq, epoch, val)
		resp, raw := postJSON(t, ts.Client(), ts.URL+"/replicate", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replicate seq %d: status %d: %s", seq, resp.StatusCode, raw)
		}
	}
	sendRec(1, 1, "d")
	sendRec(2, 1, "e")
	for _, canonical := range []bool{false, true} {
		want := testutil.Golden(t, tinySpec, tinyDB+"R(d)\nR(e)\n", canonical)
		body := `{"spec":"tiny","db":"tinydb","canonical":` + strconv.FormatBool(canonical) + `}`
		if _, got, fromView := publishVia(t, ts, body); !fromView || !bytes.Equal(got, want) {
			t.Fatalf("before the supersede: from view %v, golden match %v", fromView, bytes.Equal(got, want))
		}
	}
	sendRec(2, 2, "f")
	for _, canonical := range []bool{false, true} {
		want := testutil.Golden(t, tinySpec, tinyDB+"R(d)\nR(f)\n", canonical)
		body := `{"spec":"tiny","db":"tinydb","canonical":` + strconv.FormatBool(canonical) + `}`
		if _, got, fromView := publishVia(t, ts, body); !fromView || !bytes.Equal(got, want) {
			t.Fatalf("after the supersede canonical=%v: from view %v, golden match %v\n got %q\nwant %q",
				canonical, fromView, bytes.Equal(got, want), got, want)
		}
	}
}

// domSpec's root query ranges over the active domain: it names only S,
// yet an insert into R changes its answer.
const domSpec = `
schema R/1, S/1
transducer dom root root start q0
tag item/1, text/1
rule q0 root -> (q1, item, [x;] !S(x))
rule q1 item -> (q2, text, [x;] Reg(x))
rule q2 text -> .
`

// TestViewServedDomainDependent: after a delta to a relation a
// domain-reading query does not name, the view-served publish returns
// the post-delta golden, the bytes a forced run returns.
func TestViewServedDomainDependent(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.reg.RegisterSpec("dom", domSpec); err != nil {
		t.Fatal(err)
	}
	const db = "R(a)\nS(b)\n"
	if err := s.reg.RegisterDB("domdb", db); err != nil {
		t.Fatal(err)
	}
	openView(t, ts, "dom", "domdb")
	mutateOK(t, ts, `{"spec":"dom","db":"domdb","ops":[{"op":"insert","rel":"R","tuple":["c"]}]}`)
	want := testutil.Golden(t, domSpec, db+"R(c)\n", false)
	if _, got, fromView := publishVia(t, ts, `{"spec":"dom","db":"domdb"}`); !fromView || !bytes.Equal(got, want) {
		t.Fatalf("view-served publish: from view %v, golden match %v\n got %q\nwant %q", fromView, bytes.Equal(got, want), got, want)
	}
	if _, got, fromView := publishVia(t, ts, `{"spec":"dom","db":"domdb","limits":{"max_depth":1000}}`); fromView || !bytes.Equal(got, want) {
		t.Fatalf("forced run: from view %v, golden match %v", fromView, bytes.Equal(got, want))
	}
}

// TestViewServedReadsPairVersions: a live view keeps no instance of its
// own. After the views open, after each /mutate and after a supersede
// over /replicate, the instance each view's tree reflects is the pair's
// current registry version itself.
func TestViewServedReadsPairVersions(t *testing.T) {
	s, ts := newMutateServer(t)
	defer ts.Close()
	defer s.Close()
	specs := []string{"tau1", "tau2v", "tau3"}
	for _, spec := range specs {
		openView(t, ts, spec, "registrar")
	}
	check := func(stage string) {
		t.Helper()
		for _, spec := range specs {
			_, cur, _, err := s.reg.Pair(spec, "registrar")
			if err != nil {
				t.Fatal(err)
			}
			if _, _, inst, err := s.liveView(spec, "registrar").view.Render(io.Discard, false); err != nil || inst != cur {
				t.Fatalf("%s %s: the view reads the registry's version %v, render error %v", stage, spec, inst == cur, err)
			}
		}
	}
	check("opened")
	var seq uint64
	for step, op := range []string{"insert", "delete", "insert"} {
		seq = mutateOK(t, ts, mutateBody(op)).Seq
		check(fmt.Sprintf("mutate %d", step))
	}
	body := fmt.Sprintf(`{"db":"registrar","records":[{"seq":%d,"epoch":1,"ops":[{"op":"insert","rel":"course","tuple":["CS998","Superseding","CS"]}]}]}`, seq)
	resp, raw := postJSON(t, ts.Client(), ts.URL+"/replicate", body)
	var rr replicateResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &rr) != nil || rr.Applied != 1 {
		t.Fatalf("replicate: status %d: %s", resp.StatusCode, raw)
	}
	check("supersede")
}
