package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ptx/internal/serve"
	"ptx/internal/testutil"
)

// TestClusterRoutesGolden: a routed publish returns the exact bytes a
// direct run produces, lands on the key's ring owner, and repeats land
// on the SAME node (stable routing → cache locality).
func TestClusterRoutesGolden(t *testing.T) {
	coord, cts, nodes := newTestCluster(t, 3, Config{ProbeInterval: -1})
	want := testutil.Golden(t, tinySpec, tinyDB, false)

	status, hdr, body := postCluster(t, cts, `{"spec":"tiny","db":"tinydb"}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("routed bytes differ from golden:\n got %q\nwant %q", body, want)
	}
	first := hdr.Get("X-Ptserve-Node")
	if first == "" {
		t.Fatal("response lost the X-Ptserve-Node header in transit")
	}
	if got := hdr.Get("X-Ptcoord-Attempts"); got != "1" {
		t.Fatalf("X-Ptcoord-Attempts = %q, want 1 (no failover on a healthy ring)", got)
	}
	if owner := coord.ring.Owner("tiny\x00tinydb"); owner != first {
		t.Fatalf("request served by %q but ring owner is %q", first, owner)
	}
	for i := 0; i < 3; i++ {
		_, hdr, _ := postCluster(t, cts, `{"spec":"tiny","db":"tinydb"}`)
		if got := hdr.Get("X-Ptserve-Node"); got != first {
			t.Fatalf("repeat %d routed to %q, first went to %q", i, got, first)
		}
	}
	total := int64(0)
	for _, n := range nodes {
		total += n.hits.Load()
	}
	if total != 4 {
		t.Fatalf("nodes saw %d publishes, want 4 (no duplicate forwards)", total)
	}
}

// TestClusterErrorPassthrough: the single-node JSON error schema
// survives the proxy verbatim for every error class a worker can emit.
func TestClusterErrorPassthrough(t *testing.T) {
	_, cts, _ := newTestCluster(t, 3, Config{ProbeInterval: -1})
	cases := []struct {
		name, body, wantKind string
	}{
		{"unknown spec", `{"spec":"ghost","db":"tinydb"}`, serve.KindValidation},
		{"malformed body", `{"spec":`, serve.KindValidation},
		{"unknown field", `{"spec":"tiny","db":"tinydb","bogus":1}`, serve.KindValidation},
		{"budget", `{"spec":"tiny","db":"tinydb","limits":{"max_nodes":2}}`, serve.KindBudget},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, body := postCluster(t, cts, tc.body)
			if kind := decodeClusterError(t, status, body); kind != tc.wantKind {
				t.Fatalf("kind %q, want %q (%s)", kind, tc.wantKind, body)
			}
		})
	}
}

// TestClusterFailover: killing the owner node mid-cluster re-routes
// the request to its ring successor with the epoch bumped — the
// successor's first request already carries checkpoint authority over
// the dead node's writes.
func TestClusterFailover(t *testing.T) {
	coord, cts, nodes := newTestCluster(t, 3, Config{ProbeInterval: -1})
	want := testutil.Golden(t, tinySpec, tinyDB, false)

	owner := coord.ring.Owner("tiny\x00tinydb")
	var victim *testNode
	for _, n := range nodes {
		if n.id == owner {
			victim = n
		}
	}
	if victim == nil {
		t.Fatalf("owner %q not among nodes", owner)
	}
	epochBefore := coord.Epoch()
	victim.ts.Close() // hard kill: connection refused from here on

	status, hdr, body := postCluster(t, cts, `{"spec":"tiny","db":"tinydb"}`)
	if status != http.StatusOK {
		t.Fatalf("failover status %d: %s", status, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("failover bytes differ from golden")
	}
	if hdr.Get("X-Ptcoord-Failover") != "true" {
		t.Fatalf("failover not flagged: %v", hdr)
	}
	if got := hdr.Get("X-Ptserve-Node"); got == owner || got == "" {
		t.Fatalf("request served by %q after killing owner %q", got, owner)
	}
	if coord.Epoch() <= epochBefore {
		t.Fatalf("epoch did not advance across a node death (%d → %d)", epochBefore, coord.Epoch())
	}
	m := coord.Metrics()
	if m.Failovers == 0 {
		t.Fatal("Failovers counter not incremented")
	}
	for _, ms := range m.Members {
		if ms.ID == owner && ms.Up {
			t.Fatal("dead owner still marked up after forward failure")
		}
	}
	// The coordinator itself stays ready: two nodes remain.
	resp, err := http.Get(cts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator readyz = %d with survivors up", resp.StatusCode)
	}
}

// TestClusterDrainingNodeFailsOver: a node answering 503/draining is
// treated exactly like a dead one — a publish or a watch moves to a
// successor and still gets a real answer (golden bytes, a live stream),
// not the draining error.
func TestClusterDrainingNodeFailsOver(t *testing.T) {
	want := testutil.Golden(t, tinySpec, tinyDB, false)
	for _, path := range []string{"/publish", "/watch"} {
		t.Run(strings.TrimPrefix(path, "/"), func(t *testing.T) {
			coord, cts, nodes := newTestCluster(t, 3, Config{ProbeInterval: -1})
			owner := coord.ring.Owner("tiny\x00tinydb")
			for _, n := range nodes {
				if n.id == owner {
					ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
					if err := n.srv.Drain(ctx); err != nil {
						t.Fatalf("draining owner: %v", err)
					}
					cancel()
				}
			}
			var (
				status int
				hdr    http.Header
				body   []byte
			)
			if path == "/publish" {
				status, hdr, body = postCluster(t, cts, `{"spec":"tiny","db":"tinydb"}`)
			} else {
				status, hdr, body = getWatch(t, cts, "spec=tiny&db=tinydb")
			}
			if status != http.StatusOK {
				t.Fatalf("%s status %d after owner drain: %s", path, status, body)
			}
			if path == "/publish" && !bytes.Equal(body, want) {
				t.Fatal("drain-failover bytes differ from golden")
			}
			if got := hdr.Get("X-Ptserve-Node"); got == owner || got == "" {
				t.Fatalf("%s served by %q, want a successor of draining owner %q", path, got, owner)
			}
			if hdr.Get("X-Ptcoord-Failover") != "true" {
				t.Fatalf("%s answered without X-Ptcoord-Failover (attempts %q)", path, hdr.Get("X-Ptcoord-Attempts"))
			}
		})
	}
}

// TestClusterNoReady: with every node down the coordinator refuses
// with the schema's transient kind (retryable — the cluster may heal)
// and flips its own readiness.
func TestClusterNoReady(t *testing.T) {
	coord, cts, nodes := newTestCluster(t, 2, Config{ProbeInterval: -1})
	for _, n := range nodes {
		n.ts.Close()
	}
	// First request discovers both deaths and fails over to nothing.
	status, _, body := postCluster(t, cts, `{"spec":"tiny","db":"tinydb"}`)
	if kind := decodeClusterError(t, status, body); kind != serve.KindTransient {
		t.Fatalf("no-ready kind %q, want transient (%s)", kind, body)
	}
	if coord.Metrics().NoReady == 0 {
		t.Fatal("NoReady counter not incremented")
	}
	resp, err := http.Get(cts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with all nodes down = %d, want 503", resp.StatusCode)
	}
}

// TestClusterProbeRecovery: a node that goes unready and comes back is
// re-admitted by the prober within its interval — no manual re-join —
// and its recovery bumps the epoch and re-warms it.
func TestClusterProbeRecovery(t *testing.T) {
	// A standalone flaky node whose readiness the test controls.
	var ready atomic.Bool
	ready.Store(true)
	var warms atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/readyz":
			if ready.Load() {
				w.WriteHeader(http.StatusOK)
			} else {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
		case "/warm":
			warms.Add(1)
			w.WriteHeader(http.StatusOK)
		default:
			w.WriteHeader(http.StatusOK)
		}
	}))
	defer flaky.Close()

	coord := New(Config{ProbeInterval: 15 * time.Millisecond, ProbeSeed: 42})
	defer coord.Close()
	if err := coord.Join("flaky", flaky.URL); err != nil {
		t.Fatal(err)
	}
	// Seed a routed pair so recovery has something to warm with.
	coord.mu.Lock()
	coord.pairs["tiny\x00tinydb"] = [2]string{"tiny", "tinydb"}
	coord.mu.Unlock()

	isUp := func() bool {
		for _, m := range coord.Metrics().Members {
			if m.ID == "flaky" {
				return m.Up
			}
		}
		return false
	}
	waitFor(t, "initial up", isUp)
	epochUp := coord.Epoch()

	ready.Store(false)
	waitFor(t, "probe-driven mark-down", func() bool { return !isUp() })
	if coord.Epoch() <= epochUp {
		t.Fatal("mark-down did not bump the epoch")
	}

	ready.Store(true)
	waitFor(t, "probe-driven recovery", isUp)
	waitFor(t, "re-warm on recovery", func() bool { return warms.Load() > 0 })
}

// TestClusterJoinHTTP: nodes self-register over the wire; garbage is
// refused with the validation kind.
func TestClusterJoinHTTP(t *testing.T) {
	coord, cts, _ := newTestCluster(t, 1, Config{ProbeInterval: -1})
	extra := newTestNode(t, "joiner", nil, nil)
	payload := fmt.Sprintf(`{"id":"joiner","url":%q}`, extra.url())
	resp, err := http.Post(cts.URL+"/join", "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Epoch   uint64   `json:"epoch"`
		Members []string `json:"members"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(out.Members) != 2 || out.Epoch == 0 {
		t.Fatalf("join response %+v, want 2 members and a bumped epoch", out)
	}
	found := false
	for _, m := range coord.Metrics().Members {
		if m.ID == "joiner" && m.Up {
			found = true
		}
	}
	if !found {
		t.Fatal("joiner not up after HTTP join")
	}

	resp, err = http.Post(cts.URL+"/join", "application/json", strings.NewReader(`{"id":""}`))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if kind := decodeClusterError(t, resp.StatusCode, buf.Bytes()); kind != serve.KindValidation {
		t.Fatalf("bad join kind %q, want validation", kind)
	}
}

// TestClusterDedup: concurrent byte-identical requests through the
// coordinator share one routed flight; the shared header and the
// Deduped counter agree, and every caller gets golden bytes.
func TestClusterDedup(t *testing.T) {
	coord, cts, nodes := newTestCluster(t, 2, Config{ProbeInterval: -1})
	want := testutil.Golden(t, tinySpec, tinyDB, false)

	const n = 8
	var wg sync.WaitGroup
	var sharedCount atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, hdr, body := postCluster(t, cts, `{"spec":"tiny","db":"tinydb"}`)
			if status != http.StatusOK {
				t.Errorf("status %d: %s", status, body)
				return
			}
			if !bytes.Equal(body, want) {
				t.Error("deduped bytes differ from golden")
			}
			if hdr.Get("X-Ptcoord-Shared") == "true" {
				sharedCount.Add(1)
			}
		}()
	}
	wg.Wait()
	m := coord.Metrics()
	if m.Deduped != sharedCount.Load() {
		t.Fatalf("Deduped metric %d != shared headers %d", m.Deduped, sharedCount.Load())
	}
	total := int64(0)
	for _, nd := range nodes {
		total += nd.hits.Load()
	}
	if total+m.Deduped != n {
		t.Fatalf("forwarded %d + deduped %d != %d requests", total, m.Deduped, n)
	}
}

// TestClusterDocServed: behind the coordinator, which stamps a run key
// on every forwarded publish, nodes sharing a checkpoint store answer a
// repeat publish of an unchanged version from the document the first
// one stored on its owner.
func TestClusterDocServed(t *testing.T) {
	_, cts, nodes := newTestCluster(t, 3, Config{ProbeInterval: -1})
	want := testutil.Golden(t, tinySpec, tinyDB, false)
	const body = `{"spec":"tiny","db":"tinydb"}`
	owner := func(hdr http.Header) *testNode {
		for _, n := range nodes {
			if n.id == hdr.Get("X-Ptserve-Node") {
				return n
			}
		}
		t.Fatalf("no node named %q answered", hdr.Get("X-Ptserve-Node"))
		return nil
	}
	status, hdr, got := postCluster(t, cts, body)
	if status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("first publish: status %d, golden match %v", status, bytes.Equal(got, want))
	}
	first := owner(hdr)
	served := first.srv.Metrics().DocServed
	status, hdr, got = postCluster(t, cts, body)
	if status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("second publish: status %d, golden match %v", status, bytes.Equal(got, want))
	}
	if n := owner(hdr); n != first {
		t.Fatalf("the second publish went to %s, not the owner %s", n.id, first.id)
	}
	if d := first.srv.Metrics().DocServed - served; d != 1 {
		t.Fatalf("the second publish moved the owner's doc_served by %d, want 1", d)
	}
}

// TestCoordinatorDrain: drain flips readiness, refuses publishes with
// the draining kind, stops the prober, and leaks nothing.
func TestCoordinatorDrain(t *testing.T) {
	base := runtime.NumGoroutine()
	node := newTestNode(t, "solo", nil, nil)
	coord := New(Config{ProbeInterval: 10 * time.Millisecond})
	if err := coord.Join(node.id, node.url()); err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := coord.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, err := http.Get(cts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain = %d", resp.StatusCode)
	}
	status, _, body := postCluster(t, cts, `{"spec":"tiny","db":"tinydb"}`)
	if kind := decodeClusterError(t, status, body); kind != serve.KindDraining {
		t.Fatalf("publish after drain: kind %q, want draining", kind)
	}
	cts.Close()
	node.ts.Close()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	testutil.SettledGoroutines(t, base)
}
