// Routed mutations and proxied watches: a delta POSTed at the
// coordinator lands on the database's ring owner, which replicates it
// to every up successor before acking — so a publish anywhere in the
// cluster serves post-delta bytes, watches long-poll and stream through
// the proxy, and owner loss no longer loses acknowledged deltas
// (TestClusterMutateOwnerLossServesPostDelta pins the durability
// contract that replaced the old node-local-logs limitation).
package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"ptx/internal/testutil"
)

const (
	insertD = `{"spec":"tiny","db":"tinydb","ops":[{"op":"insert","rel":"R","tuple":["d"]}]}`
	deleteD = `{"spec":"tiny","db":"tinydb","ops":[{"op":"delete","rel":"R","tuple":["d"]}]}`
)

// postMutate sends a delta through the coordinator.
func postMutate(t *testing.T, cts *httptest.Server, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(cts.URL+"/mutate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST coordinator /mutate: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

// getWatch long-polls through the coordinator.
func getWatch(t *testing.T, cts *httptest.Server, query string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(cts.URL + "/watch?" + query)
	if err != nil {
		t.Fatalf("GET coordinator /watch: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

type clusterWatchBody struct {
	Version uint64 `json:"version"`
	Resync  bool   `json:"resync"`
	Changes []struct {
		Version   uint64 `json:"version"`
		Effective int    `json:"effective_ops"`
	} `json:"changes"`
}

// TestClusterMutateRoutesToDBOwner: a routed mutation lands on the
// database's ring owner (the single sequence authority for that db),
// is replicated to every other node before the ack, and subsequent
// routed publishes serve post-delta bytes wherever they land.
func TestClusterMutateRoutesToDBOwner(t *testing.T) {
	coord, cts, nodes := newTestCluster(t, 3, Config{ProbeInterval: -1})
	owner := coord.ring.Owner("mutate\x00tinydb")

	status, hdr, body := postMutate(t, cts, insertD)
	if status != http.StatusOK {
		t.Fatalf("mutate status %d: %s", status, body)
	}
	if got := hdr.Get("X-Ptserve-Node"); got != owner {
		t.Fatalf("mutation applied by %q but db ring owner is %q", got, owner)
	}
	if got := hdr.Get("X-Ptcoord-Attempts"); got != "1" {
		t.Fatalf("X-Ptcoord-Attempts = %q, want 1", got)
	}
	var mr struct {
		Seq        uint64 `json:"seq"`
		Replicated int    `json:"replicated"`
	}
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatalf("mutate body: %v\n%s", err, body)
	}
	if mr.Seq != 1 || mr.Replicated != 2 {
		t.Fatalf("mutate reported seq=%d replicated=%d, want seq=1 replicated=2 (both successors confirmed)", mr.Seq, mr.Replicated)
	}
	for _, n := range nodes {
		want := int64(0)
		if n.id == owner {
			want = 1
		}
		if got := n.mhits.Load(); got != want {
			t.Fatalf("node %s saw %d /mutate requests, want %d (replication uses /replicate, not /mutate)", n.id, got, want)
		}
	}

	// Replication means ANY node serves post-delta bytes — including
	// the (spec, db) publish owner, whoever that is.
	status, _, body = postCluster(t, cts, `{"spec":"tiny","db":"tinydb"}`)
	if status != http.StatusOK {
		t.Fatalf("publish status %d: %s", status, body)
	}
	if want := testutil.Golden(t, tinySpec, tinyDB+"R(d)\n", false); !bytes.Equal(body, want) {
		t.Fatalf("post-delta publish:\n got %q\nwant %q", body, want)
	}

	// Toggle back; the pair returns to its pre-delta golden.
	if status, _, body = postMutate(t, cts, deleteD); status != http.StatusOK {
		t.Fatalf("delete status %d: %s", status, body)
	}
	if status, _, body = postCluster(t, cts, `{"spec":"tiny","db":"tinydb"}`); status != http.StatusOK {
		t.Fatalf("publish status %d: %s", status, body)
	}
	if want := testutil.Golden(t, tinySpec, tinyDB, false); !bytes.Equal(body, want) {
		t.Fatalf("post-toggle publish differs from base golden:\n got %q\nwant %q", body, want)
	}
	if m := coord.Metrics(); m.Mutations != 2 {
		t.Fatalf("Metrics.Mutations = %d, want 2", m.Mutations)
	}
}

// TestClusterWatchLongPollProxied: a long-poll parked at the
// coordinator is woken by a routed mutation — watch and mutate share
// the pair's owner, so the notification actually fires.
func TestClusterWatchLongPollProxied(t *testing.T) {
	coord, cts, _ := newTestCluster(t, 2, Config{ProbeInterval: -1})
	owner := coord.ring.Owner("tiny\x00tinydb")

	// Prime the live view (version 1, no changes yet).
	status, hdr, body := getWatch(t, cts, "spec=tiny&db=tinydb")
	if status != http.StatusOK {
		t.Fatalf("prime watch status %d: %s", status, body)
	}
	if got := hdr.Get("X-Ptserve-Node"); got != owner {
		t.Fatalf("watch served by %q, want owner %q", got, owner)
	}
	var prime clusterWatchBody
	if err := json.Unmarshal(body, &prime); err != nil {
		t.Fatalf("prime watch body: %v\n%s", err, body)
	}
	if prime.Version != 1 || len(prime.Changes) != 0 {
		t.Fatalf("prime watch: version %d changes %d, want 1 and 0", prime.Version, len(prime.Changes))
	}

	type pollResult struct {
		status int
		body   []byte
	}
	done := make(chan pollResult, 1)
	go func() {
		resp, err := http.Get(cts.URL + "/watch?spec=tiny&db=tinydb&after=1&wait_ms=5000")
		if err != nil {
			done <- pollResult{status: -1, body: []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		done <- pollResult{status: resp.StatusCode, body: b}
	}()
	time.Sleep(50 * time.Millisecond) // let the poll park upstream

	if status, _, body := postMutate(t, cts, insertD); status != http.StatusOK {
		t.Fatalf("mutate status %d: %s", status, body)
	}

	select {
	case res := <-done:
		if res.status != http.StatusOK {
			t.Fatalf("parked poll status %d: %s", res.status, res.body)
		}
		var wr clusterWatchBody
		if err := json.Unmarshal(res.body, &wr); err != nil {
			t.Fatalf("parked poll body: %v\n%s", err, res.body)
		}
		if len(wr.Changes) != 1 || wr.Changes[0].Version != 2 || wr.Changes[0].Effective != 1 {
			t.Fatalf("parked poll changes %+v, want exactly version 2 with 1 effective op", wr.Changes)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("parked long-poll was not woken by the routed mutation")
	}
}

// TestClusterWatchSSEProxiedStreams: a proxied SSE stream delivers the
// change event WHILE the stream is open — proof the coordinator
// flushes through instead of buffering to end-of-stream.
func TestClusterWatchSSEProxiedStreams(t *testing.T) {
	_, cts, _ := newTestCluster(t, 2, Config{ProbeInterval: -1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cts.URL+"/watch?spec=tiny&db=tinydb", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET SSE: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("SSE status %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/event-stream") {
		t.Fatalf("Content-Type %q survived the proxy wrong", ct)
	}

	events := make(chan string, 16)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		var event string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				events <- fmt.Sprintf("%s %s", event, strings.TrimPrefix(line, "data: "))
			}
		}
	}()

	if status, _, body := postMutate(t, cts, insertD); status != http.StatusOK {
		t.Fatalf("mutate status %d: %s", status, body)
	}
	select {
	case ev, ok := <-events:
		if !ok {
			t.Fatal("SSE stream closed before any event")
		}
		if !strings.HasPrefix(ev, "change ") || !strings.Contains(ev, `"version":2`) {
			t.Fatalf("first SSE event %q, want a change at version 2", ev)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("no SSE event arrived while the stream was open (proxy buffering?)")
	}
	cancel() // unwind the proxied stream before the servers tear down
}

// TestClusterMutateOwnerLossServesPostDelta is the durability contract
// across failover: the owner replicated the acknowledged insert to its
// successor BEFORE the ack, so when the owner dies the successor serves
// post-delta bytes, and the retried delete finds the insert there to
// remove. No acknowledged delta is ever lost.
func TestClusterMutateOwnerLossServesPostDelta(t *testing.T) {
	coord, cts, nodes := newTestCluster(t, 2, Config{ProbeInterval: -1})

	status, hdr, body := postMutate(t, cts, insertD)
	if status != http.StatusOK {
		t.Fatalf("mutate status %d: %s", status, body)
	}
	owner := hdr.Get("X-Ptserve-Node")
	if status, _, body = postCluster(t, cts, `{"spec":"tiny","db":"tinydb"}`); status != http.StatusOK {
		t.Fatalf("publish status %d: %s", status, body)
	}
	if want := testutil.Golden(t, tinySpec, tinyDB+"R(d)\n", false); !bytes.Equal(body, want) {
		t.Fatal("pre-crash publish is not post-delta golden")
	}

	// Kill the owner. The coordinator has no probe loop, so it learns
	// of the death only from the next request's transport failure.
	for _, n := range nodes {
		if n.id == owner {
			n.ts.Close()
		}
	}
	epochBefore := coord.Epoch()

	status, _, body = postMutate(t, cts, deleteD)
	kind := decodeClusterError(t, status, body)
	if kind != "transient" {
		t.Fatalf("mutate against dead owner: kind %q, want transient (retryable, never silent replay)", kind)
	}
	if coord.Epoch() <= epochBefore {
		t.Fatal("owner death did not bump the epoch")
	}

	// The surviving successor holds the replicated insert: it serves
	// POST-delta bytes before the retry even lands.
	status, _, body = postCluster(t, cts, `{"spec":"tiny","db":"tinydb"}`)
	if status != http.StatusOK {
		t.Fatalf("failover publish status %d: %s", status, body)
	}
	if want := testutil.Golden(t, tinySpec, tinyDB+"R(d)\n", false); !bytes.Equal(body, want) {
		t.Fatalf("failed-over publish lost the acknowledged insert:\n got %q\nwant %q", body, want)
	}

	// The retried delete routes to the successor, applies against the
	// replicated log, and returns the database to its base state.
	status, hdr, body = postMutate(t, cts, deleteD)
	if status != http.StatusOK {
		t.Fatalf("retry mutate status %d: %s", status, body)
	}
	if got := hdr.Get("X-Ptserve-Node"); got == "" || got == owner {
		t.Fatalf("retry served by %q, want the surviving successor", got)
	}
	status, _, body = postCluster(t, cts, `{"spec":"tiny","db":"tinydb"}`)
	if status != http.StatusOK {
		t.Fatalf("post-retry publish status %d: %s", status, body)
	}
	if want := testutil.Golden(t, tinySpec, tinyDB, false); !bytes.Equal(body, want) {
		t.Fatalf("post-retry publish differs from base golden:\n got %q\nwant %q", body, want)
	}
}

// TestClusterWatchSSEProxyNoLeak: a proxied SSE watcher that hangs up
// mid-stream must unwind BOTH halves of the proxy — the coordinator's
// copy loop and the worker's parked stream — leaving no goroutine
// behind.
func TestClusterWatchSSEProxyNoLeak(t *testing.T) {
	_, cts, nodes := newTestCluster(t, 2, Config{ProbeInterval: -1})
	base := runtime.NumGoroutine()

	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, cts.URL+"/watch?spec=tiny&db=tinydb", nil)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		req.Header.Set("Accept", "text/event-stream")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			cancel()
			t.Fatalf("GET SSE: %v", err)
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			cancel()
			t.Fatalf("SSE status %d: %s", resp.StatusCode, b)
		}
		// Read the response headers' worth of stream, then vanish the
		// client mid-stream.
		buf := make([]byte, 1)
		go func() { _, _ = resp.Body.Read(buf) }()
		time.Sleep(20 * time.Millisecond)
		cancel()
		resp.Body.Close()
	}
	// The keep-alive pools hold connection goroutines; drop them so the
	// settle measures only proxy machinery.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	for _, n := range nodes {
		n.ts.Client().Transport.(*http.Transport).CloseIdleConnections()
	}
	testutil.SettledGoroutines(t, base)
}
