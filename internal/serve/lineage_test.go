// Document lineage and the integrity sum of a stored document: a delta
// that changes no relation a spec reads leaves the pair's next version
// with its predecessor's documents and memo, and a want-sum answer from
// a document carries that document's sum, computed once.
package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"ptx/internal/testutil"
)

// prereqMutate inserts or deletes one prerequisite edge of registrar: a
// relation τ1 reads and τ2v does not.
func prereqMutate(op string) string {
	return fmt.Sprintf(`{"spec":"tau1","db":"registrar","ops":[{"op":%q,"rel":"prereq","tuple":["CS201","MA101"]}]}`, op)
}

const prereqTuple = "\nprereq(CS201, MA101)\n"

func readSpec(t *testing.T, name string) string {
	t.Helper()
	src, err := os.ReadFile("../../examples/specs/" + name + ".pt")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// TestDocServedLineage: after a prereq mutate, τ2v's first publish is
// served from the document its previous version stored, in XML and
// canonical form, with no queries and a forced run's bytes, while τ1,
// which reads prereq, runs. A course mutate then drops τ2v's document.
func TestDocServedLineage(t *testing.T) {
	s, ts := newMutateServer(t)
	defer ts.Close()
	defer s.Close()
	_, dbSrc := exampleSources(t)
	forms := []bool{false, true}
	publishBody := func(spec string, canonical bool) string {
		return fmt.Sprintf(`{"spec":%q,"db":"registrar","canonical":%v}`, spec, canonical)
	}
	for _, spec := range []string{"tau1", "tau2v"} {
		for _, canonical := range forms {
			publishDocBody(t, ts, publishBody(spec, canonical))
		}
	}
	before := currentVersion(t, s, "tau2v", "registrar")
	if before.docs[0] == nil || before.docs[1] == nil {
		t.Fatal("τ2v stored no document in some form")
	}

	mutateOK(t, ts, prereqMutate("insert"))
	db := dbSrc + prereqTuple
	after := currentVersion(t, s, "tau2v", "registrar")
	if after.inst == before.inst || after.docs != before.docs || after.memo != before.memo {
		t.Fatalf("prereq mutate: new instance %v, same documents %v, same memo %v",
			after.inst != before.inst, after.docs == before.docs, after.memo == before.memo)
	}
	for _, canonical := range forms {
		want := testutil.Golden(t, readSpec(t, "tau2v"), db, canonical)
		h, got, fromDoc := publishDocBody(t, ts, publishBody("tau2v", canonical))
		if !fromDoc || h.Get("X-Ptserve-Queries") != "0" || !bytes.Equal(got, want) {
			t.Fatalf("τ2v canonical=%v after a prereq mutate: from doc %v, queries %q, golden match %v",
				canonical, fromDoc, h.Get("X-Ptserve-Queries"), bytes.Equal(got, want))
		}
		forced := fmt.Sprintf(`{"spec":"tau2v","db":"registrar","canonical":%v,"limits":{"max_depth":1000}}`, canonical)
		fh, fgot, fromDoc := publishDocBody(t, ts, forced)
		if fromDoc || !bytes.Equal(fgot, got) || fh.Get("X-Ptserve-Nodes") != h.Get("X-Ptserve-Nodes") {
			t.Fatalf("τ2v canonical=%v: forced run from doc %v, same bytes %v, nodes %s vs %s",
				canonical, fromDoc, bytes.Equal(fgot, got), fh.Get("X-Ptserve-Nodes"), h.Get("X-Ptserve-Nodes"))
		}

		want = testutil.Golden(t, readSpec(t, "tau1"), db, canonical)
		h, got, fromDoc = publishDocBody(t, ts, publishBody("tau1", canonical))
		if fromDoc || h.Get("X-Ptserve-Queries") == "0" || !bytes.Equal(got, want) {
			t.Fatalf("τ1 canonical=%v after a prereq mutate: from doc %v, queries %q, golden match %v",
				canonical, fromDoc, h.Get("X-Ptserve-Queries"), bytes.Equal(got, want))
		}
	}

	mutateOK(t, ts, mutateBody("insert"))
	db = withStormTuple(db)
	if v := currentVersion(t, s, "tau2v", "registrar"); v.docs != [2]*document{} || v.memo == before.memo {
		t.Fatalf("course mutate: documents %v, same memo %v", v.docs, v.memo == before.memo)
	}
	for _, canonical := range forms {
		want := testutil.Golden(t, readSpec(t, "tau2v"), db, canonical)
		if _, got, fromDoc := publishDocBody(t, ts, publishBody("tau2v", canonical)); fromDoc || !bytes.Equal(got, want) {
			t.Fatalf("τ2v canonical=%v after a course mutate: from doc %v, golden match %v", canonical, fromDoc, bytes.Equal(got, want))
		}
	}
}

// domSchema holds R and S, which the specs below read, and T, which no
// query names.
const domSchema = "schema R/1, S/1, T/1\n"

// domTSpec is domSpec over domSchema: it publishes one item per
// active-domain value outside S, so a write to any relation can move its
// document. rOnlySpec reads R alone.
const (
	domTSpec = domSchema + `transducer dom root db start q0
tag item/1, text/1
rule q0 db -> (q1, item, [x;] !S(x))
rule q1 item -> (q2, text, [x;] Reg(x))
rule q2 text -> .
`
	rOnlySpec = domSchema + `transducer ronly root db start q0
tag item/1, text/1
rule q0 db -> (q1, item, [x;] R(x))
rule q1 item -> (q2, text, [x;] Reg(x))
rule q2 text -> .
`
)

// TestDocServedLineageDomainReader: a spec with a domain-reading query
// inherits its document under no delta, whichever relation it writes,
// while over the same database a spec reading R alone inherits under a
// write to S or T.
func TestDocServedLineageDomainReader(t *testing.T) {
	reg := NewRegistry()
	specs := map[string]string{"dom": domTSpec, "ronly": rOnlySpec}
	for name, src := range specs {
		if err := reg.RegisterSpec(name, src); err != nil {
			t.Fatal(err)
		}
	}
	db := "R(a)\nS(b)\nT(c)\n"
	if err := reg.RegisterDB("domdb", db); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Registry: reg})
	for _, spec := range []string{"dom", "ronly"} {
		publishDocBody(t, ts, fmt.Sprintf(`{"spec":%q,"db":"domdb"}`, spec))
	}
	for _, w := range []struct {
		op, rel, val string
		ronlyKeeps   bool
	}{
		{"insert", "T", "d", true},
		{"insert", "S", "e", true},
		{"insert", "R", "f", false},
		{"delete", "T", "c", true},
		{"delete", "S", "b", true},
		{"delete", "R", "a", false},
	} {
		mutateOK(t, ts, fmt.Sprintf(`{"spec":"dom","db":"domdb","ops":[{"op":%q,"rel":%q,"tuple":[%q]}]}`, w.op, w.rel, w.val))
		line := fmt.Sprintf("%s(%s)\n", w.rel, w.val)
		if w.op == "insert" {
			db += line
		} else {
			db = strings.Replace(db, line, "", 1)
		}
		for _, spec := range []string{"dom", "ronly"} {
			want := testutil.Golden(t, specs[spec], db, false)
			wantDoc := spec == "ronly" && w.ronlyKeeps
			for i := range 2 {
				_, got, fromDoc := publishDocBody(t, ts, fmt.Sprintf(`{"spec":%q,"db":"domdb"}`, spec))
				if fromDoc != (wantDoc || i == 1) || !bytes.Equal(got, want) {
					t.Fatalf("%s %s(%s), %s publish %d: from doc %v, golden match %v",
						w.op, w.rel, w.val, spec, i, fromDoc, bytes.Equal(got, want))
				}
			}
		}
	}
}

// TestDocServedLineageInFlight: a run that resolved the version before a
// delta τ2v does not read stores its document on neither version: its
// own is no longer current, and the one that inherited from it takes no
// document from a run it did not resolve.
func TestDocServedLineageInFlight(t *testing.T) {
	s, ts := newMutateServer(t)
	defer ts.Close()
	defer s.Close()
	adm, err := s.validate(publishRequest{Spec: "tau2v", DB: "registrar"})
	if err != nil {
		t.Fatal(err)
	}
	tr, old, err := s.reg.version("tau2v", "registrar")
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := s.flights.do(context.Background(), adm.key, func(f *flight) {
		f.inst = old.inst
		f.res, f.attempts, f.resumed, f.err = s.execute(tr, old.inst, adm)
	})
	if err != nil {
		t.Fatal(err)
	}
	mutateOK(t, ts, prereqMutate("insert"))
	next := currentVersion(t, s, "tau2v", "registrar")
	if next.inst == old.inst || next.memo != old.memo {
		t.Fatalf("prereq mutate: new instance %v, inherited memo %v", next.inst != old.inst, next.memo == old.memo)
	}
	doc := s.fill(tr, f, adm)
	if v := currentVersion(t, s, "tau2v", "registrar"); v.docs != [2]*document{} {
		t.Fatal("a run on the previous version stored its document on the current one")
	}
	_, dbSrc := exampleSources(t)
	want := testutil.Golden(t, readSpec(t, "tau2v"), dbSrc+prereqTuple, false)
	if _, got, fromDoc := publishDocBody(t, ts, `{"spec":"tau2v","db":"registrar"}`); fromDoc || !bytes.Equal(got, want) || !bytes.Equal(doc.body, want) {
		t.Fatalf("publish after the stale run: from doc %v, golden match %v, stale run's bytes match %v",
			fromDoc, bytes.Equal(got, want), bytes.Equal(doc.body, want))
	}
}

// publishSum posts a want-sum publish and returns its body and its
// integrity trailer.
func publishSum(t *testing.T, ts *httptest.Server, body string) ([]byte, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/publish", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderWantSum, "1")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("publish: status %d: %s", resp.StatusCode, got)
	}
	return got, resp.Trailer.Get(HeaderBodySum)
}

// TestDocServedSumTrailer: a want-sum answer's trailer is BodySum of its
// body when a run fills the document, when the document answers the
// first and a repeat want-sum publish, when a live view answers, in
// both output forms, and for a document over the cap that is not kept.
// A stored document computes its sum only once a want-sum publish asks.
func TestDocServedSumTrailer(t *testing.T) {
	s, ts := newMutateServer(t)
	defer ts.Close()
	defer s.Close()
	check := func(what, body string, wantDoc *bool) []byte {
		t.Helper()
		docs, views := docServed(t, ts), viewServed(t, ts)
		got, sum := publishSum(t, ts, body)
		if sum != BodySum(got) {
			t.Fatalf("%s: trailer %q, BodySum %q", what, sum, BodySum(got))
		}
		if wantDoc != nil && (docServed(t, ts) != docs) != *wantDoc {
			t.Fatalf("%s: doc-served %v, want %v", what, docServed(t, ts) != docs, *wantDoc)
		}
		if what == "view-served" && viewServed(t, ts) == views {
			t.Fatal("the view did not answer")
		}
		return got
	}
	yes, no := true, false
	for _, canonical := range []bool{false, true} {
		body := fmt.Sprintf(`{"spec":"tau1","db":"registrar","canonical":%v}`, canonical)
		form := fmt.Sprintf("canonical=%v", canonical)
		check(form+" fill reply", body, &no)
		check(form+" doc-served first", body, &yes)
		check(form+" doc-served repeat", body, &yes)
	}

	plain := `{"spec":"tau3","db":"registrar"}`
	publishDocBody(t, ts, plain)
	publishDocBody(t, ts, plain)
	doc := currentVersion(t, s, "tau3", "registrar").docs[0]
	if doc == nil || doc.bodySum != "" {
		t.Fatalf("publishes without the want-sum header: stored %v, sum computed %v", doc != nil, doc != nil && doc.bodySum != "")
	}
	check("doc-served after plain publishes", plain, &yes)
	if doc.bodySum != BodySum(doc.body) {
		t.Fatal("the stored document does not keep the sum it answered with")
	}

	openView(t, ts, "tau3", "registrar")
	mutateOK(t, ts, mutateBody("insert"))
	check("view-served", plain, &no)

	var db strings.Builder
	for i := range 12000 {
		fmt.Fprintf(&db, "R(%s%06d)\n", strings.Repeat("v", 100), i)
	}
	if err := s.reg.RegisterSpec("tiny", tinySpec); err != nil {
		t.Fatal(err)
	}
	if err := s.reg.RegisterDB("bigdb", db.String()); err != nil {
		t.Fatal(err)
	}
	big := `{"spec":"tiny","db":"bigdb"}`
	for i := range 2 {
		if got := check(fmt.Sprintf("over the cap %d", i), big, &no); len(got) <= maxPooledRender {
			t.Fatalf("the big document is %d bytes, not over the %d-byte cap", len(got), maxPooledRender)
		}
	}
	if v := currentVersion(t, s, "tiny", "bigdb"); v.docs != [2]*document{} {
		t.Fatal("a document over the cap was stored")
	}
}
