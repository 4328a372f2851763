package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ptx/internal/serve"
	"ptx/internal/supervise"
	"ptx/internal/testutil"
	"ptx/internal/testutil/storm"
)

// newStormCase draws one cluster publish from its seed. A sixth of the
// cases carry a starvation budget: these are the runs that exercise
// checkpoint handoff when their node dies. The timeout's seed%7 keeps
// every case a distinct logical run: the storm measures routing and
// recovery, not coordinator dedup.
func newStormCase(seed int64) storm.Publish {
	rng := rand.New(rand.NewSource(seed))
	c := storm.Publish{
		Seed:      seed,
		Spec:      "tiny",
		DB:        "tinydb",
		Canonical: rng.Intn(2) == 0,
		Retries:   rng.Intn(3),
		TimeoutMS: 2000 + seed%7,
	}
	if rng.Intn(6) == 0 {
		c.MaxNodes = 3 + rng.Intn(3)
	}
	return c
}

// clusterGoldens are the engine's tiny/tinydb bytes, indexed by
// canonical rendering. A clean publish through the coordinator must equal
// its golden before the chaos starts, or the storm's typed errors prove
// nothing.
func clusterGoldens(t *testing.T, cts *httptest.Server) map[bool][]byte {
	goldens := map[bool][]byte{
		false: testutil.Golden(t, tinySpec, tinyDB, false),
		true:  testutil.Golden(t, tinySpec, tinyDB, true),
	}
	if status, _, body := postCluster(t, cts, `{"spec":"tiny","db":"tinydb","canonical":true}`); status != http.StatusOK || !bytes.Equal(body, goldens[true]) {
		t.Fatalf("pre-storm control publish: status %d: %s", status, body)
	}
	return goldens
}

// TestClusterStorm is the cluster chaos harness: a seeded request
// storm through the coordinator while a killer goroutine repeatedly
// KILLS a worker node mid-storm and restarts it (new listener, same
// identity, re-joined — the shared store is what survives). Every
// request must end in golden bytes or a typed schema error; afterwards
// the coordinator drains clean with zero goroutine leaks and must have
// actually exercised failover.
func TestClusterStorm(t *testing.T) {
	base := runtime.NumGoroutine()
	store, err := supervise.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const nNodes = 3
	var mu sync.Mutex // guards nodes (the killer swaps entries)
	nodes := make([]*testNode, nNodes)
	for i := range nodes {
		nodes[i] = newTestNode(t, fmt.Sprintf("storm-%d", i+1), store, nil)
	}
	coord := New(Config{ProbeInterval: 20 * time.Millisecond, ProbeSeed: 1})
	for _, n := range nodes {
		if err := coord.Join(n.id, n.url()); err != nil {
			t.Fatal(err)
		}
	}
	cts := httptest.NewServer(coord.Handler())

	goldens := clusterGoldens(t, cts)

	// The killer: seeded kill/restart cycles while the storm runs. Each
	// cycle hard-closes one node's listener (in-flight requests die with
	// torn connections), lets the storm feel the hole, then brings the
	// node back at a fresh address and re-joins it under the same id.
	stopKiller := make(chan struct{})
	killerDone := make(chan struct{})
	kills := 0
	go func() {
		defer close(killerDone)
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stopKiller:
				return
			case <-time.After(time.Duration(10+rng.Intn(15)) * time.Millisecond):
			}
			i := rng.Intn(nNodes)
			mu.Lock()
			victim := nodes[i]
			mu.Unlock()
			victim.ts.Close()
			kills++
			time.Sleep(time.Duration(10+rng.Intn(15)) * time.Millisecond)
			replacement := newTestNode(storm.Background{TB: t}, victim.id, store, nil)
			if err := coord.Join(replacement.id, replacement.url()); err != nil {
				t.Errorf("re-join %s: %v", replacement.id, err)
				return
			}
			mu.Lock()
			nodes[i] = replacement
			mu.Unlock()
		}
	}()

	st := storm.New(t, "cluster-storm", serve.StatusForKind)
	var resumed atomic.Int64
	client := &http.Client{Timeout: 10 * time.Second}
	st.Start(storm.Seeds(), 12, func(seed int64) {
		c := newStormCase(seed)
		// Seeded pacing stretches the batch across the kill windows —
		// an unpaced batch can finish before the first kill lands.
		time.Sleep(time.Duration(1+seed%6) * time.Millisecond)
		// The coordinator itself is never killed, so a transport error
		// is a harness failure, not chaos.
		r, hdr, _ := st.Do(client, storm.Op{
			Seed: seed, Name: "publish", URL: cts.URL + "/publish", Body: c.Body(), Case: c,
			Goldens: [][]byte{goldens[c.Canonical]},
			Kinds:   []string{serve.KindBudget, serve.KindCanceled, serve.KindOverloaded, serve.KindTransient, serve.KindConflict},
		})
		if r.Outcome() == "publish:ok" && hdr.Get("X-Ptserve-Resumed") == "true" {
			resumed.Add(1)
		}
	})()
	close(stopKiller)
	<-killerDone

	// The cluster must have actually been hurt — and healed: kills
	// happened, failovers fired, and the coordinator is ready again
	// within a probe interval of the last restart.
	if kills == 0 {
		t.Fatal("killer never fired; storm proved nothing")
	}
	if coord.Metrics().Failovers == 0 {
		// The seeded batch dodged every dead window (possible on a fast
		// machine). Force the scenario the chaos was hunting: kill the
		// live owner of the routed pair and publish through the hole.
		status, hdr, respBody := postCluster(t, cts, `{"spec":"tiny","db":"tinydb","limits":{"timeout_ms":2100}}`)
		if status != http.StatusOK {
			t.Fatalf("failover backstop scout: status %d: %s", status, respBody)
		}
		ownerID := hdr.Get("X-Ptserve-Node")
		mu.Lock()
		for _, n := range nodes {
			if n.id == ownerID {
				n.ts.Close()
			}
		}
		mu.Unlock()
		status, _, respBody = postCluster(t, cts, `{"spec":"tiny","db":"tinydb","limits":{"timeout_ms":2101}}`)
		if status != http.StatusOK || !bytes.Equal(respBody, goldens[false]) {
			t.Fatalf("failover backstop: status %d: %s", status, respBody)
		}
	}
	m := coord.Metrics()
	if m.Failovers == 0 {
		t.Error("no failover observed even after killing the routed owner")
	}
	waitReady(t, "post-storm readiness", cts)

	// Teardown: coordinator and every node drain clean, and nothing is
	// left running.
	mu.Lock()
	final := append([]*testNode(nil), nodes...)
	mu.Unlock()
	drains := []func(context.Context) error{coord.Drain}
	closers := []func(){cts.Close, client.CloseIdleConnections}
	for _, n := range final {
		drains = append(drains, n.srv.Drain)
		closers = append(closers, n.ts.Close)
	}
	storm.Drain(t, drains...)
	storm.Settle(t, base, closers...)

	t.Logf("cluster storm: %d kills, %d resumed; %d failovers, epoch %d", kills, resumed.Load(), m.Failovers, m.Epoch)
	tally := st.Finish(storm.Seeds(), "publish:ok")
	// Kills and starvation budgets fail some publishes, but a cluster
	// that heals answers most of them: 112–114 of 120 (46 of 48
	// under -race) were ok when this floor was set. A coordinator that
	// refuses nearly everything (a body-sum check failing every reply)
	// passes every per-request check, and only this share catches it.
	if ok := tally["publish:ok"]; 2*ok < storm.Seeds() {
		t.Errorf("only %d of %d publishes ok, want at least half", ok, storm.Seeds())
	}
}
