// Durability tests for the serve tier: with a WAL attached, an
// acknowledged mutation survives a restart (replay serves post-delta
// bytes), a crash before the fsync leaves the delta atomically absent,
// a crash after the fsync but before the ack keeps it (at-least-once),
// zombie epochs are fenced, and /replicate + /sync implement the
// dup-skip / gap-answer protocol.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"ptx/internal/breaker"
	"ptx/internal/runctl"
	"ptx/internal/testutil"
	"ptx/internal/wal"
)

// tinyMutate is the /mutate body toggling R(d) on tiny/tinydb.
func tinyMutate(op, val string) string {
	return fmt.Sprintf(`{"spec":"tiny","db":"tinydb","ops":[{"op":%q,"rel":"R","tuple":[%q]}]}`, op, val)
}

// newWALServer builds a tiny/tinydb server over a WAL rooted at dir.
func newWALServer(t *testing.T, dir string, opt wal.Options, cfg Config) (*Server, *httptest.Server, *wal.Log) {
	t.Helper()
	l, err := wal.Open(dir, opt)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	reg := NewRegistry()
	if err := reg.RegisterSpec("tiny", tinySpec); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterDB("tinydb", tinyDB); err != nil {
		t.Fatal(err)
	}
	reg.AttachWAL(l)
	cfg.Registry = reg
	s, ts := newTestServer(t, cfg)
	t.Cleanup(func() { l.Close() })
	return s, ts, l
}

// TestMutateRestartServesPostDelta is the tentpole contract end to end:
// an acknowledged delta is on disk before the 200, so a server built
// from scratch over the same WAL directory serves post-delta bytes.
func TestMutateRestartServesPostDelta(t *testing.T) {
	dir := t.TempDir()
	_, ts, l := newWALServer(t, dir, wal.Options{}, Config{})
	resp, body := postJSON(t, http.DefaultClient, ts.URL+"/mutate", tinyMutate("insert", "d"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: status %d: %s", resp.StatusCode, body)
	}
	var mr mutateResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Seq != 1 {
		t.Fatalf("first delta committed at seq %d, want 1", mr.Seq)
	}
	want := testutil.Golden(t, tinySpec, tinyDB+"R(d)\n", false)
	status, _, got := post(t, ts, `{"spec":"tiny","db":"tinydb"}`)
	if status != http.StatusOK || string(got) != string(want) {
		t.Fatalf("pre-restart publish: status %d\n got %q\nwant %q", status, got, want)
	}
	// /healthz carries the durability counters.
	var hz struct {
		Metrics Metrics `json:"metrics"`
	}
	if code := getJSON(t, http.DefaultClient, ts.URL+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if hz.Metrics.Appended != 1 || hz.Metrics.Fsyncs < 1 {
		t.Fatalf("healthz durability counters = %+v, want appended=1, fsyncs>=1", hz.Metrics)
	}
	ts.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a brand-new registry over the same directory.
	_, ts2, _ := newWALServer(t, dir, wal.Options{}, Config{})
	status, _, got = post(t, ts2, `{"spec":"tiny","db":"tinydb"}`)
	if status != http.StatusOK {
		t.Fatalf("post-restart publish: status %d: %s", status, got)
	}
	if string(got) != string(want) {
		t.Fatalf("restart lost the acknowledged delta:\n got %q\nwant %q", got, want)
	}
	var hz2 struct {
		Metrics Metrics `json:"metrics"`
	}
	if code := getJSON(t, http.DefaultClient, ts2.URL+"/healthz", &hz2); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if hz2.Metrics.Recovered != 1 {
		t.Fatalf("post-restart recovered = %d, want 1", hz2.Metrics.Recovered)
	}
}

// TestMutateCrashBeforeDurable covers the two pre-durability crash
// points: the client hears a typed 503 "storage", the delta is
// atomically absent both live and after a restart, and a retry
// succeeds once the fault clears.
func TestMutateCrashBeforeDurable(t *testing.T) {
	for _, op := range []runctl.Op{runctl.OpWALAppend, runctl.OpWALSync} {
		t.Run(string(op), func(t *testing.T) {
			dir := t.TempDir()
			plan := &runctl.FaultPlan{Op: op, N: 1, Err: fmt.Errorf("injected crash at %s", op)}
			_, ts, l := newWALServer(t, dir, wal.Options{Faults: plan}, Config{})
			resp, body := postJSON(t, http.DefaultClient, ts.URL+"/mutate", tinyMutate("insert", "d"))
			info := decodeError(t, resp.StatusCode, body)
			if resp.StatusCode != http.StatusServiceUnavailable || info.Kind != KindStorage {
				t.Fatalf("crashed mutate = (%d, %q), want (503, storage)", resp.StatusCode, info.Kind)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("storage rejection must advertise Retry-After")
			}
			// Atomically absent: live publish serves pre-delta bytes...
			want := testutil.Golden(t, tinySpec, tinyDB, false)
			status, _, got := post(t, ts, `{"spec":"tiny","db":"tinydb"}`)
			if status != http.StatusOK || string(got) != string(want) {
				t.Fatalf("publish after failed mutate: status %d\n got %q\nwant %q", status, got, want)
			}
			// ...and the retry commits at seq 1: nothing of the failed
			// attempt reached the log.
			resp, body = postJSON(t, http.DefaultClient, ts.URL+"/mutate", tinyMutate("insert", "d"))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("retry: status %d: %s", resp.StatusCode, body)
			}
			var mr mutateResponse
			if err := json.Unmarshal(body, &mr); err != nil {
				t.Fatal(err)
			}
			if mr.Seq != 1 {
				t.Fatalf("retry committed at seq %d, want 1 (failed attempt must not burn a seq)", mr.Seq)
			}
			ts.Close()
			l.Close()
			recs, _, err := wal.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 1 {
				t.Fatalf("WAL holds %d records, want exactly the retried one", len(recs))
			}
		})
	}
}

// TestMutateCrashAfterDurable is the at-least-once window: the ack is
// lost but the delta is durable and applied — the client's retry is a
// harmless duplicate under set semantics.
func TestMutateCrashAfterDurable(t *testing.T) {
	dir := t.TempDir()
	plan := &runctl.FaultPlan{Op: runctl.OpMutateAck, N: 1, Err: runctl.Transient(fmt.Errorf("injected crash before ack"))}
	_, ts, _ := newWALServer(t, dir, wal.Options{}, Config{MutateFaults: plan})
	resp, body := postJSON(t, http.DefaultClient, ts.URL+"/mutate", tinyMutate("insert", "d"))
	info := decodeError(t, resp.StatusCode, body)
	if resp.StatusCode != http.StatusServiceUnavailable || info.Kind != KindTransient {
		t.Fatalf("lost ack = (%d, %q), want (503, transient)", resp.StatusCode, info.Kind)
	}
	// The delta is live despite the lost ack.
	want := testutil.Golden(t, tinySpec, tinyDB+"R(d)\n", false)
	status, _, got := post(t, ts, `{"spec":"tiny","db":"tinydb"}`)
	if status != http.StatusOK || string(got) != string(want) {
		t.Fatalf("publish after lost ack: status %d\n got %q\nwant %q", status, got, want)
	}
	// The client's retry re-commits the same membership at seq 2.
	resp, body = postJSON(t, http.DefaultClient, ts.URL+"/mutate", tinyMutate("insert", "d"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry: status %d: %s", resp.StatusCode, body)
	}
	status, _, got = post(t, ts, `{"spec":"tiny","db":"tinydb"}`)
	if status != http.StatusOK || string(got) != string(want) {
		t.Fatalf("publish after retry: status %d\n got %q\nwant %q", status, got, want)
	}
}

// TestMutateZombieEpochFenced: a write carrying an epoch below the
// database's high-water mark is a dead owner's and bounces off with a
// typed 409 before any state changes.
func TestMutateZombieEpochFenced(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	mutateAt := func(epoch uint64, val string) (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/mutate", strings.NewReader(tinyMutate("insert", val)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(HeaderEpoch, strconv.FormatUint(epoch, 10))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf strings.Builder
		dec := json.NewDecoder(resp.Body)
		var raw json.RawMessage
		_ = dec.Decode(&raw)
		buf.Write(raw)
		return resp, []byte(buf.String())
	}
	if resp, body := mutateAt(5, "d"); resp.StatusCode != http.StatusOK {
		t.Fatalf("epoch-5 mutate: status %d: %s", resp.StatusCode, body)
	}
	resp, body := mutateAt(3, "e")
	info := decodeError(t, resp.StatusCode, body)
	if resp.StatusCode != http.StatusConflict || info.Kind != KindConflict {
		t.Fatalf("zombie epoch = (%d, %q), want (409, conflict)", resp.StatusCode, info.Kind)
	}
	// The fenced write left no trace.
	want := testutil.Golden(t, tinySpec, tinyDB+"R(d)\n", false)
	status, _, got := post(t, ts, `{"spec":"tiny","db":"tinydb"}`)
	if status != http.StatusOK || string(got) != string(want) {
		t.Fatalf("publish after fenced write: status %d\n got %q\nwant %q", status, got, want)
	}
	// The same epoch keeps working — fencing is strictly-below.
	if resp, body := mutateAt(5, "f"); resp.StatusCode != http.StatusOK {
		t.Fatalf("same-epoch mutate: status %d: %s", resp.StatusCode, body)
	}
}

// TestReplicateProtocol pins the receiver's three answers: a fresh
// record applies, a duplicate is skipped without error, and a record
// past the high-water mark is a gap answered with the mark (HTTP 200 —
// the gap is the protocol working, not a failure). It then supersedes a
// record: the same seq at a newer epoch replaces the local suffix, and
// both the publish and a live view opened beforehand serve the new
// history, the view after exactly one more report.
func TestReplicateProtocol(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var wr watchResponse
	if code := getJSON(t, http.DefaultClient, ts.URL+"/watch?spec=tiny&db=tinydb", &wr); code != http.StatusOK || wr.Version != 1 {
		t.Fatalf("opening the live view: status %d, %+v", code, wr)
	}
	sendRec := func(seq, epoch uint64, val string) replicateResponse {
		t.Helper()
		body := fmt.Sprintf(`{"db":"tinydb","records":[{"seq":%d,"epoch":%d,"ops":[{"op":"insert","rel":"R","tuple":[%q]}]}]}`, seq, epoch, val)
		resp, raw := postJSON(t, http.DefaultClient, ts.URL+"/replicate", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replicate seq %d: status %d: %s", seq, resp.StatusCode, raw)
		}
		var rr replicateResponse
		if err := json.Unmarshal(raw, &rr); err != nil {
			t.Fatal(err)
		}
		return rr
	}
	if rr := sendRec(1, 1, "d"); rr.Applied != 1 || rr.Have != 1 || rr.Gap {
		t.Fatalf("fresh record: %+v, want applied=1 have=1", rr)
	}
	if rr := sendRec(1, 1, "d"); rr.Applied != 0 || rr.Have != 1 || rr.Gap {
		t.Fatalf("duplicate record: %+v, want applied=0 have=1", rr)
	}
	if rr := sendRec(5, 1, "z"); rr.Applied != 0 || rr.Have != 1 || !rr.Gap {
		t.Fatalf("gapped record: %+v, want gap=true have=1", rr)
	}
	// The replicated (not gapped) delta is serving.
	want := testutil.Golden(t, tinySpec, tinyDB+"R(d)\n", false)
	status, _, got := post(t, ts, `{"spec":"tiny","db":"tinydb"}`)
	if status != http.StatusOK || string(got) != string(want) {
		t.Fatalf("publish after replicate: status %d\n got %q\nwant %q", status, got, want)
	}

	// Supersede: seq 2 from epoch 1, then seq 2 again from epoch 2.
	if rr := sendRec(2, 1, "e"); rr.Applied != 1 || rr.Have != 2 || rr.Gap {
		t.Fatalf("epoch-1 seq 2: %+v, want applied=1 have=2", rr)
	}
	lv, err := s.liveViewFor("tiny", "tinydb")
	if err != nil {
		t.Fatal(err)
	}
	before := lv.view.Version()
	if rr := sendRec(2, 2, "f"); rr.Applied != 1 || rr.Have != 2 || rr.Gap {
		t.Fatalf("superseding seq 2: %+v, want applied=1 have=2", rr)
	}
	want = testutil.Golden(t, tinySpec, tinyDB+"R(d)\nR(f)\n", true)
	status, _, got = post(t, ts, `{"spec":"tiny","db":"tinydb","canonical":true}`)
	if status != http.StatusOK || string(got) != string(want) {
		t.Fatalf("publish after supersede: status %d\n got %q\nwant %q", status, got, want)
	}
	snap, _, err := lv.view.Snapshot(true)
	if err != nil || string(snap)+"\n" != string(want) {
		t.Fatalf("live view after supersede: err %v\n got %q\nwant %q", err, snap, want)
	}
	url := fmt.Sprintf("%s/watch?spec=tiny&db=tinydb&after=%d", ts.URL, before)
	if code := getJSON(t, http.DefaultClient, url, &wr); code != http.StatusOK || len(wr.Changes) != 1 || wr.Version != before+1 {
		t.Fatalf("watch after supersede: status %d, %+v, want one report at version %d", code, wr, before+1)
	}
}

// TestSyncBidirectional: two servers diverge (each holds deltas the
// other lacks... except replication seq means divergence is a strict
// prefix relation — the behind node pulls the tail, then pushes back
// anything it alone holds). After /sync both serve identical bytes.
func TestSyncBidirectional(t *testing.T) {
	_, tsA := newTestServer(t, Config{})
	_, tsB := newTestServer(t, Config{})
	// A takes two mutations; B is empty.
	for _, val := range []string{"d", "e"} {
		resp, body := postJSON(t, http.DefaultClient, tsA.URL+"/mutate", tinyMutate("insert", val))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mutate A: status %d: %s", resp.StatusCode, body)
		}
	}
	// B syncs against A: pulls 2, pushes 0.
	resp, raw := postJSON(t, http.DefaultClient, tsB.URL+"/sync", fmt.Sprintf(`{"db":"tinydb","peer":%q}`, tsA.URL))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync: status %d: %s", resp.StatusCode, raw)
	}
	var sr syncResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Pulled != 2 || sr.Pushed != 0 || sr.Seq != 2 {
		t.Fatalf("sync = %+v, want pulled=2 pushed=0 seq=2", sr)
	}
	want := testutil.Golden(t, tinySpec, tinyDB+"R(d)\nR(e)\n", false)
	for name, ts := range map[string]*httptest.Server{"A": tsA, "B": tsB} {
		status, _, got := post(t, ts, `{"spec":"tiny","db":"tinydb"}`)
		if status != http.StatusOK || string(got) != string(want) {
			t.Fatalf("node %s diverged after sync: status %d\n got %q\nwant %q", name, status, got, want)
		}
	}
	// Now B takes a delta and A syncs: the push arm covers A.
	if resp, body := postJSON(t, http.DefaultClient, tsB.URL+"/mutate", tinyMutate("insert", "f")); resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate B: status %d: %s", resp.StatusCode, body)
	}
	resp, raw = postJSON(t, http.DefaultClient, tsB.URL+"/sync", fmt.Sprintf(`{"db":"tinydb","peer":%q}`, tsA.URL))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync 2: status %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Pulled != 0 || sr.Pushed != 1 {
		t.Fatalf("sync 2 = %+v, want pulled=0 pushed=1", sr)
	}
	want = testutil.Golden(t, tinySpec, tinyDB+"R(d)\nR(e)\nR(f)\n", false)
	for name, ts := range map[string]*httptest.Server{"A": tsA, "B": tsB} {
		status, _, got := post(t, ts, `{"spec":"tiny","db":"tinydb"}`)
		if status != http.StatusOK || string(got) != string(want) {
			t.Fatalf("node %s diverged after push sync: status %d\n got %q\nwant %q", name, status, got, want)
		}
	}
}

// TestMutateReplicaDeadline: a replica push cut off by the mutation's
// own deadline withholds the ack but is no evidence against the
// replica, so however often the budget runs out its breaker never
// opens.
func TestMutateReplicaDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: only then does the server notice the
		// sender hanging up and end the request.
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	defer hung.Close()
	for i := 0; i < 3; i++ {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/mutate", strings.NewReader(tinyMutate("insert", fmt.Sprintf("d%d", i))))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(HeaderReplicas, "h="+hung.URL)
		req.Header.Set(HeaderDeadline, "50")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if info := decodeError(t, resp.StatusCode, body); info.Kind != KindTransient {
			t.Fatalf("mutate %d: kind %q, want transient: %s", i, info.Kind, body)
		}
		if got := resp.Header.Get(HeaderReplicaFailed); got != "h" {
			t.Fatalf("mutate %d: %s = %q, want \"h\"", i, HeaderReplicaFailed, got)
		}
	}
	if m := s.Metrics(); m.BreakerOpens != 0 {
		t.Fatalf("replica breaker opened %d times on budget deaths (open: %v)", m.BreakerOpens, m.BreakerOpen)
	}
}

// TestMutateReplicaDeadlineReleasesProbe: a half-open replica whose
// probe push is cut off by the mutation's deadline is not locked out.
// The probe slot is handed back, so the next mutation pushes to the
// replica again, and once it answers the ack goes out.
func TestMutateReplicaDeadlineReleasesProbe(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	_, live := newTestServer(t, Config{})
	s.repBreakers = breaker.NewSet(breaker.Config{Threshold: 1, Cooldown: time.Millisecond})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	defer hung.Close()
	s.repBreakers.Failure("h")
	time.Sleep(5 * time.Millisecond) // past the cooldown: h's next push is the probe

	mutate := func(val, url, deadline string) (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/mutate", strings.NewReader(tinyMutate("insert", val)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(HeaderReplicas, "h="+url)
		if deadline != "" {
			req.Header.Set(HeaderDeadline, deadline)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}
	resp, body := mutate("d0", hung.URL, "50")
	if info := decodeError(t, resp.StatusCode, body); info.Kind != KindTransient || resp.Header.Get(HeaderReplicaFailed) != "h" {
		t.Fatalf("probe cut by the deadline: kind %q, %s = %q: %s", info.Kind, HeaderReplicaFailed, resp.Header.Get(HeaderReplicaFailed), body)
	}
	// h answers again: the next push is the re-admitted probe, not a
	// fast failure behind a probe slot nobody will ever release.
	if resp, body = mutate("d1", live.URL, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate after the canceled probe: status %d (%s = %q): %s", resp.StatusCode, HeaderReplicaFailed, resp.Header.Get(HeaderReplicaFailed), body)
	}
	if st := s.repBreakers.State("h"); st != breaker.Closed {
		t.Fatalf("replica breaker %v after a confirmed push, want closed", st)
	}
}

// TestMutateReplicasHeader: a mutation naming replicas is confirmed on
// every reachable one before the ack; an unreachable replica is
// reported in X-Ptserve-Replica-Failed, never silently dropped.
func TestMutateReplicasHeader(t *testing.T) {
	_, tsA := newTestServer(t, Config{})
	_, tsB := newTestServer(t, Config{})
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer dead.Close()

	// First attempt names a dead replica: the commit lands locally and
	// on the live replica, but the ack is WITHHELD — a 200 would let
	// this node die as the only holder of an "acknowledged" record.
	req, err := http.NewRequest(http.MethodPost, tsA.URL+"/mutate", strings.NewReader(tinyMutate("insert", "d")))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderReplicas, fmt.Sprintf("b=%s,x=%s", tsB.URL, dead.URL))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mutate with a dead replica: status %d, want 503: %s", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("untyped error body: %s", body)
	}
	if eb.Error.Kind != KindTransient {
		t.Fatalf("kind %q, want transient (retryable — the commit stands)", eb.Error.Kind)
	}
	if got := resp.Header.Get(HeaderReplicaFailed); got != "x" {
		t.Fatalf("%s = %q, want \"x\"", HeaderReplicaFailed, got)
	}
	// The live replica heard the delta even though the client heard no
	// ack — at-least-once, never at-most-once.
	want := testutil.Golden(t, tinySpec, tinyDB+"R(d)\n", false)
	status, _, got := post(t, tsB, `{"spec":"tiny","db":"tinydb"}`)
	if status != http.StatusOK || string(got) != string(want) {
		t.Fatalf("replica publish: status %d\n got %q\nwant %q", status, got, want)
	}

	// The retry drops the dead replica (the coordinator marked it down)
	// and is acked: the duplicate insert burns a fresh seq but changes
	// nothing, and every named replica confirms.
	req, err = http.NewRequest(http.MethodPost, tsA.URL+"/mutate", strings.NewReader(tinyMutate("insert", "d")))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderReplicas, "b="+tsB.URL)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr mutateResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry mutate: status %d", resp.StatusCode)
	}
	if mr.Replicated != 1 {
		t.Fatalf("retry replicated = %d, want 1", mr.Replicated)
	}
	if got := resp.Header.Get(HeaderReplicaFailed); got != "" {
		t.Fatalf("retry %s = %q, want empty", HeaderReplicaFailed, got)
	}
	status, _, got = post(t, tsB, `{"spec":"tiny","db":"tinydb"}`)
	if status != http.StatusOK || string(got) != string(want) {
		t.Fatalf("post-retry replica publish: status %d\n got %q\nwant %q", status, got, want)
	}
}
