// Network-chaos tests: the cluster under partitions, resets, corrupted
// and truncated streams, and slow-loris peers. The netchaos mesh sits
// between the coordinator and its nodes (and between the nodes'
// replication clients), so every fault here is a REAL wire fault, not
// a mocked error path. The contracts under test:
//
//   - every request ends in golden bytes or a typed schema error,
//     bounded by its propagated deadline budget (+ grace), never by a
//     flat client timeout;
//   - no mutation sequence number is ever acked twice (the dual-ack
//     anomaly asymmetric partitions are famous for);
//   - circuit breakers open on repeated transport failures, are
//     observable on /healthz, and the prober respects their half-open
//     schedule instead of hammering;
//   - hedged reads mask a partitioned primary; mutations never hedge;
//   - after HealAll the cluster converges back to ready with zero
//     goroutine leaks.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ptx/internal/breaker"
	"ptx/internal/netchaos"
	"ptx/internal/serve"
	"ptx/internal/supervise"
	"ptx/internal/testutil/storm"
)

// hostOf extracts the host:port peer name the mesh keys links by.
func hostOf(t testing.TB, raw string) string {
	t.Helper()
	u, err := neturl.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

// meshedNode builds a worker whose replication client crosses the mesh
// (from = node id) and whose registry also carries mutdb — a second
// database so storm mutations never disturb the tinydb publish golden.
func meshedNode(t testing.TB, mesh *netchaos.Mesh, id string, store supervise.CheckpointStore) *testNode {
	t.Helper()
	return newTestNode(t, id, store, func(cfg *serve.Config) {
		if err := cfg.Registry.RegisterDB("mutdb", tinyDB); err != nil {
			t.Fatal(err)
		}
		cfg.ReplicateClient = &http.Client{
			Transport: mesh.Transport(id, nil),
			Timeout:   5 * time.Second,
		}
	})
}

// TestPartitionStorm is the chaos-mesh proof: a seeded request storm
// (publishes on tinydb, mutations on mutdb) through a coordinator whose
// client — and whose nodes' replication clients — cross a fault mesh,
// while a partitioner goroutine cuts, refuses and mangles random
// directional links mid-traffic. Uses storm.Seeds() cases (reduced under
// -race, which CI runs this under).
func TestPartitionStorm(t *testing.T) {
	base := runtime.NumGoroutine()
	store, err := supervise.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mesh := netchaos.NewMesh(4242)
	const nNodes = 3
	nodes := make([]*testNode, nNodes)
	froms := []string{"coord"}
	for i := range nodes {
		id := fmt.Sprintf("pstorm-%d", i+1)
		nodes[i] = meshedNode(t, mesh, id, store)
		froms = append(froms, id)
	}
	hosts := make([]string, nNodes)
	for i, n := range nodes {
		hosts[i] = hostOf(t, n.url())
	}

	const budgetMS = 2000
	grace := 250 * time.Millisecond
	coord := New(Config{
		ProbeInterval: 20 * time.Millisecond,
		ProbeSeed:     1,
		ForwardBudget: budgetMS * time.Millisecond,
		DeadlineGrace: grace,
		SyncTimeout:   time.Second,
		Client:        &http.Client{Transport: mesh.Transport("coord", nil)},
	})
	t.Cleanup(coord.Close)
	for _, n := range nodes {
		if err := coord.Join(n.id, n.url()); err != nil {
			t.Fatal(err)
		}
	}
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)

	goldens := clusterGoldens(t, cts)

	// The partitioner: seeded asymmetric link chaos driven by the
	// request schedule, not the wall clock, so it bites however fast the
	// storm runs. Each window picks one directional (from, to) link and
	// either hard-partitions it (black hole), makes it refuse
	// (fast-fail), or mangles its response bodies; the next window heals
	// it. The first window is installed before any client starts, and
	// every windowEvery-th started request moves to the next one.
	const windowEvery = 4
	rng := rand.New(rand.NewSource(777))
	var chaosMu sync.Mutex
	var cut [2]string // the current window's link
	nextWindow := func() {
		chaosMu.Lock()
		defer chaosMu.Unlock()
		if cut[0] != "" {
			mesh.Heal(cut[0], cut[1])
			mesh.ClearLink(cut[0], cut[1])
		}
		from := froms[rng.Intn(len(froms))]
		to := hosts[rng.Intn(len(hosts))]
		switch rng.Intn(3) {
		case 0:
			mesh.Partition(from, to)
		case 1:
			mesh.SetLink(from, to, netchaos.Faults{Refuse: 1})
		case 2:
			mesh.SetLink(from, to, netchaos.Faults{Reset: 0.4, Corrupt: 0.3, Truncate: 0.3})
		}
		cut = [2]string{from, to}
	}
	nextWindow()
	var started atomic.Int64

	// Deadline discipline: the coordinator answers within the request's
	// budget plus its grace; the slack absorbs client scheduling under
	// -race, nothing else. Finish's dual-ack check catches two nodes that
	// both believed they were mutdb's sequence authority.
	st := storm.New(t, "partition-storm", serve.StatusForKind)
	st.Bound = budgetMS*time.Millisecond + grace + 2*time.Second
	client := &http.Client{Timeout: 15 * time.Second}
	st.Start(storm.Seeds(), 12, func(seed int64) {
		time.Sleep(time.Duration(1+seed%6) * time.Millisecond)
		if started.Add(1)%windowEvery == 0 {
			nextWindow()
		}
		if seed%3 == 0 {
			st.Do(client, storm.Op{Seed: seed, Name: "mutate", URL: cts.URL + "/mutate",
				Body: fmt.Sprintf(`{"spec":"tiny","db":"mutdb","ops":[{"op":"insert","rel":"R","tuple":["m%d"]}]}`, seed)})
			return
		}
		c := newStormCase(seed)
		st.Do(client, storm.Op{Seed: seed, Name: "publish", URL: cts.URL + "/publish", Body: c.Body(), Case: c, Goldens: [][]byte{goldens[c.Canonical]}})
	})()
	mesh.HealAll()

	// The chaos must have actually bitten, and the breakers must have
	// tripped observably. If the seeded windows happened to dodge every
	// request, force both: a refusing link and enough distinct publishes
	// to trip the owner's breaker and fail over.
	inj := mesh.Injected()
	if len(inj) == 0 {
		t.Error("mesh injected no faults; storm proved nothing")
	}
	if coord.Metrics().BreakerOpens == 0 {
		// The seeded windows never produced three consecutive transport
		// failures against one member. Force the condition: refuse every
		// coordinator link and let the prober's failures trip a breaker.
		mesh.SetLink("coord", "*", netchaos.Faults{Refuse: 1})
		waitFor(t, "a breaker to open under refused links", func() bool {
			return coord.Metrics().BreakerOpens > 0
		})
		mesh.ClearLink("coord", "*")
	}
	if got := coord.Metrics().BreakerOpens; got == 0 {
		t.Error("no breaker opened under sustained transport failures")
	}
	// Breaker state is part of the operator surface: /healthz carries
	// the open count and per-member states.
	var hz struct {
		Metrics Metrics `json:"metrics"`
	}
	getJSON(t, cts.URL+"/healthz", &hz)
	if hz.Metrics.BreakerOpens == 0 {
		t.Error("/healthz does not report breaker opens")
	}
	for _, m := range hz.Metrics.Members {
		if m.Breaker == "" {
			t.Errorf("/healthz member %s missing breaker state", m.ID)
		}
	}

	// Heal and converge: the probers re-admit every node through the
	// breaker half-open schedule and the catch-up sync.
	mesh.HealAll()
	waitReady(t, "post-chaos readiness", cts)
	status, _, healedBody := postCluster(t, cts, `{"spec":"tiny","db":"tinydb","limits":{"timeout_ms":4000}}`)
	if status != http.StatusOK || !bytes.Equal(healedBody, goldens[false]) {
		t.Errorf("post-heal publish: status %d: %s", status, healedBody)
	}

	drains := []func(context.Context) error{coord.Drain}
	closers := []func(){cts.Close, client.CloseIdleConnections}
	for _, n := range nodes {
		drains = append(drains, n.srv.Drain)
		closers = append(closers, n.ts.Close)
	}
	storm.Drain(t, drains...)
	storm.Settle(t, base, closers...)

	m := coord.Metrics()
	t.Logf("partition storm: injected %v; failovers %d, hedges %d (wins %d), breaker opens %d",
		inj, m.Failovers, m.Hedges, m.HedgeWins, m.BreakerOpens)
	st.Finish(storm.Seeds(), "publish:ok")
}

// TestSlowLorisPublishBoundedByDeadline pins satellite #1: the
// coordinator used to ride a flat 90s client timeout, so a node whose
// response body trickled out one byte at a time held the request (and
// its dedup flight) for the full 90 seconds. Now the request's own
// 2s budget — propagated via X-Ptx-Deadline — bounds it.
func TestSlowLorisPublishBoundedByDeadline(t *testing.T) {
	mesh := netchaos.NewMesh(7)
	node := newTestNode(t, "loris-1", nil, nil)
	coord := New(Config{
		ProbeInterval: -1,
		HedgeDelay:    -1, // no second node to rescue this; measure the bound itself
		Client:        &http.Client{Transport: mesh.Transport("coord", nil)},
	})
	t.Cleanup(coord.Close)
	if err := coord.Join(node.id, node.url()); err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)

	mesh.SetLink("coord", hostOf(t, node.url()), netchaos.Faults{SlowLoris: 1, SlowPace: 80 * time.Millisecond})
	start := time.Now()
	status, _, body := postCluster(t, cts, `{"spec":"tiny","db":"tinydb","limits":{"timeout_ms":2000}}`)
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Fatalf("slow-loris publish took %v — outlived its 2s budget + grace", elapsed)
	}
	if elapsed < time.Second {
		t.Fatalf("slow-loris publish returned in %v — the fault never engaged", elapsed)
	}
	if kind := decodeClusterError(t, status, body); kind != serve.KindCanceled {
		t.Fatalf("slow-loris publish ended with kind %q, want %q", kind, serve.KindCanceled)
	}
}

// TestWatchHedgesAroundPartition: a hedged attempt masks a black-holed
// primary on both idempotent routes — a publish gets its bytes and a
// watch CONNECT gets its stream from the next preference-list member
// after the hedge delay, not after a timeout.
func TestWatchHedgesAroundPartition(t *testing.T) {
	for _, tc := range []struct {
		name string
		do   func(*testing.T, *httptest.Server) (int, http.Header, []byte)
	}{
		{"publish", func(t *testing.T, cts *httptest.Server) (int, http.Header, []byte) {
			return postCluster(t, cts, `{"spec":"tiny","db":"tinydb"}`)
		}},
		{"watch", func(t *testing.T, cts *httptest.Server) (int, http.Header, []byte) {
			return getWatch(t, cts, "spec=tiny&db=tinydb")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mesh := netchaos.NewMesh(13)
			coord, cts, nodes := newTestCluster(t, 2, Config{
				ProbeInterval: -1,
				ForwardBudget: 2 * time.Second, // hedge auto-delay = budget/4 = 500ms
				Client:        &http.Client{Transport: mesh.Transport("coord", nil)},
			})

			// Learn which node owns the (tiny, tinydb) route.
			status, hdr, body := tc.do(t, cts)
			if status != http.StatusOK {
				t.Fatalf("clean %s: status %d: %s", tc.name, status, body)
			}
			ownerID := hdr.Get("X-Ptserve-Node")
			var ownerHost string
			for _, n := range nodes {
				if n.id == ownerID {
					ownerHost = hostOf(t, n.url())
				}
			}
			if ownerHost == "" {
				t.Fatalf("owner %q not among nodes", ownerID)
			}

			mesh.Partition("coord", ownerHost)
			start := time.Now()
			status, hdr, body = tc.do(t, cts)
			elapsed := time.Since(start)
			if status != http.StatusOK {
				t.Fatalf("hedged %s: status %d: %s", tc.name, status, body)
			}
			if hdr.Get("X-Ptcoord-Hedged") != "true" {
				t.Fatalf("%s succeeded without the hedge marker (served by %s in %v)", tc.name, hdr.Get("X-Ptserve-Node"), elapsed)
			}
			if got := hdr.Get("X-Ptserve-Node"); got == ownerID {
				t.Fatalf("partitioned owner %q somehow served the %s", got, tc.name)
			}
			if elapsed > 1500*time.Millisecond {
				t.Fatalf("hedged %s took %v, want ~hedge delay (500ms)", tc.name, elapsed)
			}
			if m := coord.Metrics(); m.Hedges == 0 || m.HedgeWins == 0 {
				t.Fatalf("hedge counters not advanced: %+v", m)
			}
			mesh.HealAll()
		})
	}
}

// TestHedgeLoserReleasesProbe: an attempt that holds its member's
// half-open probe slot and loses the race to the hedge is canceled and
// still judged, so its budget-less failure hands the slot back instead
// of locking the member out of every later race and probe.
func TestHedgeLoserReleasesProbe(t *testing.T) {
	coord := New(Config{
		ProbeInterval: -1,
		Breaker:       breaker.Config{Threshold: 1, Cooldown: time.Millisecond},
	})
	t.Cleanup(coord.Close)
	coord.breakers.Failure("a")
	time.Sleep(5 * time.Millisecond) // past the cooldown: a's next call is the probe
	prefs := []MemberStatus{{ID: "a"}, {ID: "b"}}
	_, cancel, attempts, hedged, err := race(coord, context.Background(), prefs, time.Millisecond,
		func(ctx context.Context, m MemberStatus) (int, error) {
			if m.ID == "a" {
				<-ctx.Done() // the probe dawdles until the race abandons it
				return 0, ctx.Err()
			}
			return 1, nil
		}, nil)
	if err != nil || !hedged || attempts != 1 {
		t.Fatalf("race: attempts %d, hedged %v, err %v; want a hedge win", attempts, hedged, err)
	}
	cancel()
	waitFor(t, "the abandoned probe's slot to be handed back", func() bool {
		return coord.breakers.Allow("a")
	})
	if st := coord.breakers.State("a"); st != breaker.HalfOpen {
		t.Fatalf("a's breaker is %v after a canceled probe, want half-open", st)
	}
}

// TestProberRespectsOpenBreaker pins satellite #2: once a member's
// breaker opens, the health prober probes it on the breaker's half-open
// schedule instead of every ProbeInterval — and the half-open probe is
// what re-admits the member when it recovers.
func TestProberRespectsOpenBreaker(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	var readyzHits atomic.Int64
	ws := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		readyzHits.Add(1)
		if ready.Load() {
			w.WriteHeader(http.StatusOK)
		} else {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	t.Cleanup(ws.Close)

	coord := New(Config{
		ProbeInterval: 20 * time.Millisecond,
		ProbeSeed:     7,
		Breaker:       breaker.Config{Threshold: 1, Cooldown: time.Second, Jitter: 0.01},
	})
	t.Cleanup(coord.Close)
	if err := coord.Join("flaky", ws.URL); err != nil {
		t.Fatal(err)
	}

	ready.Store(false)
	waitFor(t, "breaker to open on probe failure", func() bool {
		return coord.Metrics().BreakerOpens >= 1
	})

	// With the breaker open (1s cooldown), a 600ms window at 20ms probe
	// cadence would see ~30 probes if the prober ignored it. The
	// half-open schedule allows at most the one probe already in flight.
	before := readyzHits.Load()
	time.Sleep(600 * time.Millisecond)
	if got := readyzHits.Load() - before; got > 1 {
		t.Fatalf("prober sent %d probes in 600ms to an open-breaker peer (cooldown 1s)", got)
	}

	// Recovery rides the half-open slot: the node comes back, the next
	// scheduled probe closes the breaker.
	ready.Store(true)
	waitFor(t, "half-open probe to close the breaker", func() bool {
		ms := coord.Metrics().Members
		return len(ms) == 1 && ms[0].Breaker == breaker.Closed.String()
	})
}

// TestReplicaPartitionWithholdsAck pins satellite #3: a mutation whose
// replica is PARTITIONED (not killed — the node is alive and will
// rejoin) is NOT acked: the owner reports the failed replica, the
// coordinator answers a typed transient 503 and marks the replica
// down, and after the partition heals a retry re-replicates and acks.
// Mutations are never hedged — the hedge counter must stay zero.
func TestReplicaPartitionWithholdsAck(t *testing.T) {
	store, err := supervise.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mesh := netchaos.NewMesh(23)
	nodes := make([]*testNode, 3)
	for i := range nodes {
		nodes[i] = meshedNode(t, mesh, fmt.Sprintf("rp-%d", i+1), store)
	}
	coord := New(Config{
		ProbeInterval: 20 * time.Millisecond,
		ProbeSeed:     3,
		ForwardBudget: time.Second,
		SyncTimeout:   time.Second,
	})
	t.Cleanup(coord.Close)
	for _, n := range nodes {
		if err := coord.Join(n.id, n.url()); err != nil {
			t.Fatal(err)
		}
	}
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)

	ownerID := coord.ring.Owner("mutate\x00tinydb")
	var replica *testNode
	for _, n := range nodes {
		if n.id != ownerID {
			replica = n
			break
		}
	}

	// One-way partition: owner → replica replication black-holes; the
	// replica itself stays fully reachable (probes keep succeeding).
	mesh.Partition(ownerID, hostOf(t, replica.url()))
	start := time.Now()
	status, hdr, body := postMutate(t, cts, insertD)
	elapsed := time.Since(start)
	if kind := decodeClusterError(t, status, body); kind != serve.KindTransient {
		t.Fatalf("partitioned-replica mutation: kind %q, want %q (body %s)", kind, serve.KindTransient, body)
	}
	if failed := hdr.Get(serve.HeaderReplicaFailed); failed == "" {
		t.Fatalf("ack withheld without naming the failed replica (headers %v)", hdr)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("withheld ack took %v — replication wait must be deadline-bounded", elapsed)
	}

	// Heal; the prober re-admits the replica through the catch-up sync,
	// and the retry replicates to the full successor set again.
	mesh.HealAll()
	waitFor(t, "replica re-admitted after heal", func() bool {
		for _, m := range coord.Metrics().Members {
			if !m.Up {
				return false
			}
		}
		return true
	})
	var ack struct {
		Seq        uint64 `json:"seq"`
		Replicated int    `json:"replicated"`
	}
	// The retry can race the first post-heal probe sweeps; poll briefly.
	waitFor(t, "post-heal mutation to ack", func() bool {
		status, _, body = postMutate(t, cts, insertD)
		return status == http.StatusOK && json.Unmarshal(body, &ack) == nil
	})
	if ack.Seq == 0 || ack.Replicated != 2 {
		t.Fatalf("post-heal ack %+v, want seq>0 replicated=2", ack)
	}
	waitFor(t, "replica log to carry the delta", func() bool {
		return coord.memberSeq(replica.url(), "tinydb") >= ack.Seq
	})
	if got := coord.Metrics().Hedges; got != 0 {
		t.Fatalf("mutation path fired %d hedges; mutations must NEVER hedge", got)
	}
}

// BenchmarkHedgedPublish measures publish latency through a coordinator
// whose primary link is degraded (100ms injected latency), hedged vs
// unhedged, reporting p50/p99 (go test -bench HedgedPublish
// ./internal/cluster): the hedged p99 should sit near the hedge delay,
// not the degradation.
func BenchmarkHedgedPublish(b *testing.B) {
	run := func(b *testing.B, hedge time.Duration) {
		mesh := netchaos.NewMesh(99)
		nodes := make([]*testNode, 2)
		for i := range nodes {
			nodes[i] = newTestNode(b, fmt.Sprintf("hb-%d", i+1), nil, nil)
		}
		coord := New(Config{
			ProbeInterval: -1,
			HedgeDelay:    hedge,
			Client:        &http.Client{Transport: mesh.Transport("coord", nil)},
		})
		b.Cleanup(coord.Close)
		for _, n := range nodes {
			if err := coord.Join(n.id, n.url()); err != nil {
				b.Fatal(err)
			}
		}
		cts := httptest.NewServer(coord.Handler())
		b.Cleanup(cts.Close)

		// Find the primary and degrade only its link.
		resp, err := http.Post(cts.URL+"/publish", "application/json",
			bytes.NewReader([]byte(`{"spec":"tiny","db":"tinydb"}`)))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		primary := resp.Header.Get("X-Ptserve-Node")
		for _, n := range nodes {
			if n.id == primary {
				mesh.SetLink("coord", hostOf(b, n.url()), netchaos.Faults{Latency: 100 * time.Millisecond})
			}
		}

		lat := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body := fmt.Sprintf(`{"spec":"tiny","db":"tinydb","limits":{"timeout_ms":%d}}`, 5000+i)
			start := time.Now()
			resp, err := http.Post(cts.URL+"/publish", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				b.Fatal(err)
			}
			var sink bytes.Buffer
			_, _ = sink.ReadFrom(resp.Body)
			resp.Body.Close()
			lat = append(lat, time.Since(start))
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d: %s", resp.StatusCode, sink.Bytes())
			}
		}
		b.StopTimer()
		if len(lat) > 0 {
			p50, p99 := percentiles(lat)
			b.ReportMetric(float64(p50.Microseconds())/1000, "p50-ms")
			b.ReportMetric(float64(p99.Microseconds())/1000, "p99-ms")
		}
	}
	b.Run("unhedged", func(b *testing.B) { run(b, -1) })
	b.Run("hedged-20ms", func(b *testing.B) { run(b, 20*time.Millisecond) })
}

func percentiles(lat []time.Duration) (p50, p99 time.Duration) {
	s := append([]time.Duration(nil), lat...)
	for i := 1; i < len(s); i++ { // insertion sort; bench-sized inputs
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)*50/100], s[len(s)*99/100]
}
