package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ptx/internal/serve"
	"ptx/internal/supervise"
)

// The same two-level publish the serve tests pin goldens against.
const tinySpec = `
schema R/1
transducer tiny root db start q0
tag item/1, text/1
rule q0 db -> (q1, item, [x;] R(x))
rule q1 item -> (q2, text, [x;] Reg(x))
rule q2 text -> .
`

const tinyDB = `
R(a)
R(b)
R(c)
`

// testNode is one worker in a test cluster: a real serve.Server behind
// a real listener, with a hit counter so tests can assert exactly which
// node did the work.
type testNode struct {
	id    string
	srv   *serve.Server
	ts    *httptest.Server
	hits  atomic.Int64 // publish requests that reached this node
	mhits atomic.Int64 // mutate requests that reached this node
}

func (n *testNode) url() string { return n.ts.URL }

// newTestNode builds a worker over a fresh tiny/tinydb registry. A nil
// store disables the checkpoint path (benchmarks use this so routed
// throughput is not charged for checkpoint I/O).
func newTestNode(t testing.TB, id string, store supervise.CheckpointStore, mutate func(*serve.Config)) *testNode {
	t.Helper()
	reg := serve.NewRegistry()
	if err := reg.RegisterSpec("tiny", tinySpec); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterDB("tinydb", tinyDB); err != nil {
		t.Fatal(err)
	}
	cfg := serve.Config{
		Registry:        reg,
		NodeID:          id,
		Store:           store,
		CheckpointEvery: 1,
		Workers:         8,
		Queue:           16,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := &testNode{id: id, srv: srv}
	inner := srv.Handler()
	n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/publish":
			n.hits.Add(1)
		case "/mutate":
			n.mhits.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		n.ts.Close()
		srv.Close()
	})
	return n
}

// newTestCluster stands up n workers over one shared store plus a
// coordinator with all of them joined and up.
func newTestCluster(t *testing.T, n int, ccfg Config) (*Coordinator, *httptest.Server, []*testNode) {
	t.Helper()
	dir, err := supervise.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*testNode, n)
	for i := range nodes {
		nodes[i] = newTestNode(t, fmt.Sprintf("node-%d", i+1), dir, nil)
	}
	coord := New(ccfg)
	t.Cleanup(coord.Close)
	for _, nd := range nodes {
		if err := coord.Join(nd.id, nd.url()); err != nil {
			t.Fatalf("join %s: %v", nd.id, err)
		}
	}
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)
	return coord, cts, nodes
}

// postCluster publishes through the coordinator.
func postCluster(t *testing.T, cts *httptest.Server, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(cts.URL+"/publish", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST coordinator /publish: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

// decodeClusterError asserts the stable JSON error schema end-to-end:
// body parses, kind is known, and the status matches serve's pinned
// kind↔status table even after proxying.
func decodeClusterError(t *testing.T, status int, body []byte) string {
	t.Helper()
	var eb struct {
		Error serve.ErrorInfo `json:"error"`
	}
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body is not the JSON schema: %v\n%s", err, body)
	}
	want, ok := serve.StatusForKind(eb.Error.Kind)
	if !ok {
		t.Fatalf("unknown error kind %q", eb.Error.Kind)
	}
	if status != want {
		t.Fatalf("kind %q arrived with status %d, pinned mapping says %d", eb.Error.Kind, status, want)
	}
	return eb.Error.Kind
}

// getJSON decodes the body of a GET to url into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// waitReady waits for the coordinator's /readyz to answer 200.
func waitReady(t *testing.T, what string, cts *httptest.Server) {
	t.Helper()
	waitFor(t, what, func() bool {
		resp, err := http.Get(cts.URL + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
}

// waitFor polls cond up to 2s — used only for probe-driven transitions
// whose timing the test does not control directly.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
