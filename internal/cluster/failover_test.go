package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ptx/internal/serve"
	"ptx/internal/supervise"
	"ptx/internal/testutil"
)

// TestFailoverSingleflightRace is the leader-election contract under
// concurrency (run under -race in CI): a herd of byte-identical
// requests dedups into ONE routed flight; when the owner node dies mid-
// request, exactly one retry — the new leader — lands on the surviving
// node, and every caller in the herd receives byte-identical golden
// output. The kill is deterministic (the victim hijacks and severs the
// connection on its first publish), and so is the herd: the victim
// holds that publish until the other members have joined its flight.
func TestFailoverSingleflightRace(t *testing.T) {
	// Choose ids so the victim OWNS the pair's key — the herd must hit
	// the dying node first, not by luck but by construction.
	scratch := ringOf("n1", "n2")
	prefs := scratch.Prefer("tiny\x00tinydb", 2)
	victimID, survivorID := prefs[0], prefs[1]

	store, err := supervise.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	survivor := newTestNode(t, survivorID, store, nil)

	const herd = 8
	var coord *Coordinator
	var victimHits atomic.Int64
	victim := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/publish":
			victimHits.Add(1)
			// Hold the leader's request until every other herd member has
			// joined its flight, so none can arrive after the flight ended
			// and start a second one.
			for deadline := time.Now().Add(10 * time.Second); coord.joined(r.Header.Get(serve.HeaderRunKey)) < herd-1; {
				if time.Now().After(deadline) {
					t.Errorf("only %d of %d followers joined the flight", coord.joined(r.Header.Get(serve.HeaderRunKey)), herd-1)
					break
				}
				time.Sleep(time.Millisecond)
			}
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("test server does not support hijacking")
				return
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			conn.Close() // die mid-request: the client sees a torn connection
		default:
			w.WriteHeader(http.StatusOK)
		}
	}))
	defer victim.Close()

	coord = New(Config{ProbeInterval: -1})
	defer coord.Close()
	if err := coord.Join(victimID, victim.URL); err != nil {
		t.Fatal(err)
	}
	if err := coord.Join(survivorID, survivor.url()); err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	want := testutil.Golden(t, tinySpec, tinyDB, false)
	epochBefore := coord.Epoch()

	var wg sync.WaitGroup
	var shared atomic.Int64
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, hdr, body := postCluster(t, cts, `{"spec":"tiny","db":"tinydb"}`)
			if status != http.StatusOK {
				t.Errorf("status %d: %s", status, body)
				return
			}
			if !bytes.Equal(body, want) {
				t.Error("herd member got non-golden bytes")
			}
			if hdr.Get("X-Ptcoord-Shared") == "true" {
				shared.Add(1)
			}
		}()
	}
	wg.Wait()

	// Exactly one leader reached the victim, exactly one new leader was
	// elected onto the survivor, and everyone else shared the flight.
	if got := victimHits.Load(); got != 1 {
		t.Fatalf("victim saw %d publishes, want exactly 1 (the original leader)", got)
	}
	if got := survivor.hits.Load(); got != 1 {
		t.Fatalf("survivor saw %d publishes, want exactly 1 (the new leader)", got)
	}
	if got := shared.Load(); got != herd-1 {
		t.Fatalf("%d of %d herd members shared the flight, want %d", got, herd, herd-1)
	}
	if coord.Epoch() <= epochBefore {
		t.Fatal("owner death did not bump the epoch")
	}
	m := coord.Metrics()
	if m.Failovers != 1 || m.Deduped != herd-1 {
		t.Fatalf("metrics: failovers %d (want 1), deduped %d (want %d)", m.Failovers, m.Deduped, herd-1)
	}
}

// TestClusterCheckpointHandoff is the distributed resume acceptance
// test, fully deterministic: a node-budgeted run fails on its owner
// leaving a checkpoint; the owner is then KILLED; re-submitting the
// identical body routes to the ring successor at a bumped epoch, which
// resumes from the dead node's snapshot (X-Ptserve-Resumed: true) and
// — across enough bounded rounds — finishes with golden bytes.
func TestClusterCheckpointHandoff(t *testing.T) {
	coord, cts, nodes := newTestCluster(t, 3, Config{ProbeInterval: -1})
	want := testutil.Golden(t, tinySpec, tinyDB, false)

	const body = `{"spec":"tiny","db":"tinydb","limits":{"max_nodes":3}}`
	status, hdr, respBody := postCluster(t, cts, body)
	if kind := decodeClusterError(t, status, respBody); kind != "budget" {
		t.Fatalf("first round: kind %q, want budget (%s)", kind, respBody)
	}
	owner := hdr.Get("X-Ptserve-Node")
	if owner == "" {
		t.Fatal("first round did not name its node")
	}
	for _, n := range nodes {
		if n.id == owner {
			n.ts.Close() // kill the owner with its checkpoint on disk
		}
	}

	sawResume := false
	for round := 0; round < 50; round++ {
		status, hdr, respBody := postCluster(t, cts, body)
		if node := hdr.Get("X-Ptserve-Node"); node == owner {
			t.Fatalf("round %d: dead owner %q answered", round, owner)
		}
		if status == http.StatusOK {
			if !bytes.Equal(respBody, want) {
				t.Fatalf("round %d: completed bytes differ from golden", round)
			}
			if hdr.Get("X-Ptserve-Resumed") != "true" {
				t.Fatalf("round %d: completion did not resume from the checkpoint", round)
			}
			sawResume = true
			break
		}
		if kind := decodeClusterError(t, status, respBody); kind != "budget" {
			t.Fatalf("round %d: kind %q, want budget (%s)", round, kind, respBody)
		}
	}
	if !sawResume {
		t.Fatal("run never completed after the owner kill")
	}
	if coord.Metrics().Failovers == 0 {
		t.Fatal("no failover recorded despite the kill")
	}
}
