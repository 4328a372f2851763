// The durability storm: the acceptance harness for "no acknowledged
// delta is ever lost". Seeded mutators push unique two-op deltas
// through the coordinator while a killer crashes worker nodes (WAL and
// all) and restarts them from disk, and probabilistic crash points
// inside the WAL fail appends before they become durable. Invariants:
//
//   - every delta acknowledged with 200 is present after every crash,
//     restart, and failover — including a final rolling restart of the
//     whole cluster from the on-disk logs alone;
//   - a delta that only ever died at a pre-durable crash point
//     (storage-kind errors on every attempt) is atomically absent;
//   - no reader ever observes a torn delta: each two-op pair appears
//     in a published document either whole or not at all;
//   - the storm leaks zero goroutines.
package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"ptx/internal/runctl"
	"ptx/internal/serve"
	"ptx/internal/testutil/storm"
	"ptx/internal/wal"
)

// durabilitySeeds is pinned at 120 even under the race detector — the
// acceptance criterion is the full batch with -race on.
const durabilitySeeds = 120

// errInjectedMedia is the fault every WAL crash point raises; it
// surfaces to clients as a storage-kind 503.
var errInjectedMedia = errors.New("injected media fault")

// durNode is a testNode whose registry commits through a real on-disk
// WAL, so the node can be killed and rebuilt from that directory.
type durNode struct {
	*testNode
	log *wal.Log
	dir string
}

// openDurNode builds a worker whose WAL lives in dir (reusing whatever
// records are already there) with seeded pre-durable crash points. A
// faultSeed of 0 disables injection — that is the recovery
// configuration.
func openDurNode(t testing.TB, id, dir string, faultSeed int64) *durNode {
	t.Helper()
	var plan *runctl.FaultPlan
	if faultSeed != 0 {
		plan = runctl.SeededPlan(faultSeed, errInjectedMedia, map[runctl.Op]float64{
			runctl.OpWALAppend: 0.10,
			runctl.OpWALSync:   0.08,
		})
	}
	return openDurNodePlan(t, id, dir, plan)
}

// openDurNodePlan is openDurNode with the WAL's fault plan given.
func openDurNodePlan(t testing.TB, id, dir string, plan *runctl.FaultPlan) *durNode {
	t.Helper()
	var l *wal.Log
	n := newTestNode(t, id, nil, func(cfg *serve.Config) {
		var err error
		l, err = wal.Open(dir, wal.Options{Faults: plan})
		if err != nil {
			t.Fatalf("open WAL %s: %v", dir, err)
		}
		cfg.Registry.AttachWAL(l)
	})
	d := &durNode{testNode: n, log: l, dir: dir}
	t.Cleanup(func() { _ = l.Close() })
	return d
}

// kill hard-stops the node: listener, server, and WAL handle. The only
// thing that survives is the directory.
func (d *durNode) kill() {
	d.ts.Close()
	d.srv.Close()
	_ = d.log.Close()
}

// durSeed is one logical delta: a pair of tuples inserted atomically,
// derived from the seed alone so failures replay by number.
type durSeed struct {
	Seed int64
}

func (c durSeed) pair() (string, string) {
	return fmt.Sprintf("s%da", c.Seed), fmt.Sprintf("s%db", c.Seed)
}

func (c durSeed) body() string {
	a, b := c.pair()
	return fmt.Sprintf(`{"spec":"tiny","db":"tinydb","ops":[{"op":"insert","rel":"R","tuple":[%q]},{"op":"insert","rel":"R","tuple":[%q]}]}`, a, b)
}

// pairState classifies one seed's pair inside a published document:
// whole, absent, or torn.
func pairState(body []byte, c durSeed) string {
	// Tuple values render as whitespace-delimited text lines inside
	// <item>; every value starts with its only 's', so no value is a
	// substring of another and a plain scan is exact.
	a, b := c.pair()
	hasA := bytes.Contains(body, []byte(a))
	hasB := bytes.Contains(body, []byte(b))
	switch {
	case hasA && hasB:
		return "whole"
	case !hasA && !hasB:
		return "absent"
	default:
		return "torn"
	}
}

func TestDurabilityStorm(t *testing.T) {
	base := runtime.NumGoroutine()
	const nNodes = 3
	root := t.TempDir()
	var mu sync.Mutex // guards nodes (killer and final restart swap entries)
	nodes := make([]*durNode, nNodes)
	dirs := make([]string, nNodes)
	for i := range nodes {
		dirs[i] = filepath.Join(root, fmt.Sprintf("wal-%d", i+1))
		nodes[i] = openDurNode(t, fmt.Sprintf("dur-%d", i+1), dirs[i], int64(1000+i))
	}
	coord := New(Config{ProbeInterval: 20 * time.Millisecond, ProbeSeed: 7})
	t.Cleanup(coord.Close)
	for _, n := range nodes {
		if err := coord.Join(n.id, n.url()); err != nil {
			t.Fatal(err)
		}
	}
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)

	// The killer: crash one worker (listener + server + WAL handle),
	// rebuild it from its directory, and re-join it under the same id.
	// Join's write barrier replays the disk log and pulls the missed
	// tail from a peer before the node can own mutations again.
	stopKiller := make(chan struct{})
	killerDone := make(chan struct{})
	kills := 0
	go func() {
		defer close(killerDone)
		rng := rand.New(rand.NewSource(4242))
		gen := int64(0)
		for {
			select {
			case <-stopKiller:
				return
			case <-time.After(time.Duration(20+rng.Intn(25)) * time.Millisecond):
			}
			i := rng.Intn(nNodes)
			mu.Lock()
			victim := nodes[i]
			mu.Unlock()
			victim.kill()
			kills++
			gen++
			time.Sleep(time.Duration(10+rng.Intn(15)) * time.Millisecond)
			replacement := openDurNode(storm.Background{TB: t}, victim.id, victim.dir, 2000+gen)
			if err := coord.Join(replacement.id, replacement.url()); err != nil {
				t.Errorf("re-join %s: %v", replacement.id, err)
				return
			}
			mu.Lock()
			nodes[i] = replacement
			mu.Unlock()
		}
	}()

	// Each seed retries its delta up to five times; the outcome is the
	// seed's durability contract. "acked": some attempt returned 200 —
	// the pair must survive everything. "lost": every attempt died at a
	// pre-durable storage crash point — the pair must be absent.
	// "unknown": a transport-path failure (dead owner, fence, overload)
	// means the delta may or may not have landed; it must still be
	// atomic. The coordinator is never killed, so a transport error is a
	// harness bug.
	st := storm.New(t, "durability-storm", serve.StatusForKind)
	outcomes := make([]string, durabilitySeeds+1)
	var omu sync.Mutex
	client := &http.Client{Timeout: 10 * time.Second}
	torn := 0
	st.Start(durabilitySeeds, 8, func(seed int64) {
		c := durSeed{Seed: seed}
		time.Sleep(time.Duration(1+seed%9) * time.Millisecond)
		outcome := "lost"
		for attempt := 0; attempt < 5; attempt++ {
			r, _, _ := st.Do(client, storm.Op{
				Seed: seed, Name: "mutate", URL: cts.URL + "/mutate", Body: c.body(), Case: c,
				Kinds: []string{serve.KindStorage, serve.KindTransient, serve.KindConflict, serve.KindOverloaded, serve.KindDraining},
			})
			if r.Outcome() == "mutate:ok" {
				outcome = "acked"
				break
			}
			// A storage kind is a pre-durable crash point: the WAL rolled
			// the write back, so this attempt provably left nothing behind.
			// Any other failure may have landed without the ack reaching
			// us; only atomicity is assertable for this seed.
			if r.Kind != serve.KindStorage {
				outcome = "unknown"
			}
			time.Sleep(time.Duration(5*(attempt+1)) * time.Millisecond)
		}
		omu.Lock()
		outcomes[seed] = outcome
		omu.Unlock()

		// Every fourth seed doubles as a live reader: publish through
		// the coordinator and scan for torn pairs mid-chaos.
		if seed%4 != 0 {
			return
		}
		r, _, body := st.Do(client, storm.Op{Seed: seed, Name: "publish", URL: cts.URL + "/publish", Body: `{"spec":"tiny","db":"tinydb","retries":2}`})
		if r.Outcome() != "publish:ok" {
			return // typed failures under chaos are fine; only 200 bodies are inspected
		}
		omu.Lock()
		defer omu.Unlock()
		for s := int64(1); s <= durabilitySeeds; s++ {
			if sc := (durSeed{Seed: s}); pairState(body, sc) == "torn" {
				torn++
				st.Fail(s, sc, "torn pair in live publish (reader seed %d)", seed)
			}
		}
	})()
	close(stopKiller)
	<-killerDone
	if kills == 0 {
		t.Fatal("killer never fired; storm proved nothing")
	}

	// Recovery: rolling restart of the whole cluster with fault
	// injection OFF. Each node comes back from its on-disk WAL alone,
	// then heals any missed tail from a live peer under the join
	// barrier.
	mu.Lock()
	final := append([]*durNode(nil), nodes...)
	mu.Unlock()
	for i, n := range final {
		n.kill()
		reborn := openDurNode(t, n.id, n.dir, 0)
		if err := coord.Join(reborn.id, reborn.url()); err != nil {
			t.Fatalf("final re-join %s: %v", reborn.id, err)
		}
		final[i] = reborn
	}
	waitReady(t, "post-recovery readiness", cts)

	// After the rolling faultless restart every node's log must have
	// converged to the same sequence mark: the coordinator refuses to
	// promote a node that has not reached the acked high-water, so a
	// divergent survivor here means the convergence gate leaked.
	var seqs []uint64
	for _, n := range final {
		var dl struct {
			Seq uint64 `json:"seq"`
		}
		getJSON(t, n.url()+"/deltalog?db=tinydb", &dl)
		seqs = append(seqs, dl.Seq)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[0] {
			t.Errorf("logs diverged after recovery: %s at seq %d, %s at seq %d",
				final[0].id, seqs[0], final[i].id, seqs[i])
		}
	}

	// Every restarted node must have replayed records from disk.
	replayed := int64(0)
	for _, n := range final {
		var hz struct {
			Metrics serve.Metrics `json:"metrics"`
		}
		getJSON(t, n.url()+"/healthz", &hz)
		replayed += hz.Metrics.Recovered
	}
	if replayed == 0 {
		t.Error("no node recovered any WAL record; the storm never exercised replay")
	}

	// The verdict: one publish from each node (direct, not proxied) —
	// acked pairs present everywhere, storage-lost pairs absent
	// everywhere, nothing torn anywhere.
	for _, n := range final {
		status, _, body := postCluster(t, n.ts, `{"spec":"tiny","db":"tinydb"}`)
		if status != http.StatusOK {
			t.Fatalf("final publish on %s: status %d: %s", n.id, status, body)
		}
		for s := int64(1); s <= durabilitySeeds; s++ {
			c := durSeed{Seed: s}
			state := pairState(body, c)
			switch outcomes[s] {
			case "acked":
				if state != "whole" {
					st.Fail(s, c, "ACKED delta is %s on %s after recovery", state, n.id)
				}
			case "lost":
				if state != "absent" {
					st.Fail(s, c, "storage-failed delta is %s on %s (rollback leaked)", state, n.id)
				}
			default:
				if state == "torn" {
					st.Fail(s, c, "torn delta on %s after recovery", n.id)
				}
			}
		}
	}
	count := map[string]int{}
	for _, o := range outcomes[1:] {
		count[o]++
	}
	if count["acked"] == 0 {
		t.Error("no seed was ever acknowledged; the storm proved nothing about durability")
	}

	// Teardown: stop everything, then the goroutine ledger must
	// balance.
	closers := []func(){client.CloseIdleConnections}
	for _, n := range final {
		closers = append(closers, n.kill)
	}
	storm.Settle(t, base, closers...)
	t.Logf("durability storm: %d kills; seed outcomes %v; %d torn views; %d records replayed", kills, count, torn, replayed)
	st.Finish(0, "mutate:ok")
	t.Run("refused-appends", testDurabilityRefused)
}

// testDurabilityRefused is the storm's second configuration, the guard
// on append-then-commit: while every node's WAL refuses every append,
// the first `refused` seeds fail with `storage` on every attempt, and
// their deltas must be absent from every node, live (a delta committed
// in memory before its append would show here) and after a faultless
// rolling restart. The remaining seeds then run on healthy WALs and
// must be acked and present.
func testDurabilityRefused(t *testing.T) {
	const nNodes, seeds, refused = 3, 24, 8
	base := runtime.NumGoroutine()
	root := t.TempDir()
	nodes := make([]*durNode, nNodes)
	coord := New(Config{ProbeInterval: 20 * time.Millisecond, ProbeSeed: 7})
	t.Cleanup(coord.Close)
	for i := range nodes {
		refuse := runctl.SeededPlan(int64(3000+i), errInjectedMedia, map[runctl.Op]float64{runctl.OpWALAppend: 1})
		nodes[i] = openDurNodePlan(t, fmt.Sprintf("ref-%d", i+1), filepath.Join(root, fmt.Sprintf("wal-%d", i+1)), refuse)
		if err := coord.Join(nodes[i].id, nodes[i].url()); err != nil {
			t.Fatal(err)
		}
	}
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)

	st := storm.New(t, "durability-refused", serve.StatusForKind)
	outcomes := make([]string, seeds+1)
	client := &http.Client{Timeout: 10 * time.Second}
	mutate := func(seed int64) {
		c := durSeed{Seed: seed}
		outcomes[seed] = "lost"
		for attempt := 0; attempt < 5; attempt++ {
			r, _, _ := st.Do(client, storm.Op{
				Seed: seed, Name: "mutate", URL: cts.URL + "/mutate", Body: c.body(), Case: c,
				Kinds: []string{serve.KindStorage, serve.KindTransient, serve.KindConflict, serve.KindOverloaded, serve.KindDraining},
			})
			if r.Outcome() == "mutate:ok" {
				outcomes[seed] = "acked"
				return
			}
			if r.Kind != serve.KindStorage {
				outcomes[seed] = "unknown"
			}
		}
	}
	verdict := func(stage string) {
		t.Helper()
		for _, n := range nodes {
			status, _, body := postCluster(t, n.ts, `{"spec":"tiny","db":"tinydb"}`)
			if status != http.StatusOK {
				t.Fatalf("%s publish on %s: status %d: %s", stage, n.id, status, body)
			}
			for s := int64(1); s <= seeds; s++ {
				c := durSeed{Seed: s}
				switch state := pairState(body, c); {
				case outcomes[s] == "lost" && state != "absent":
					st.Fail(s, c, "%s: storage-failed delta is %s on %s (rollback leaked)", stage, state, n.id)
				case outcomes[s] == "acked" && state != "whole":
					st.Fail(s, c, "%s: ACKED delta is %s on %s", stage, state, n.id)
				}
			}
		}
	}
	for seed := int64(1); seed <= refused; seed++ {
		mutate(seed)
	}
	verdict("live, WALs refusing")
	for i, n := range nodes {
		n.kill()
		nodes[i] = openDurNode(t, n.id, n.dir, 0)
		if err := coord.Join(nodes[i].id, nodes[i].url()); err != nil {
			t.Fatal(err)
		}
	}
	waitReady(t, "readiness after the faultless restart", cts)
	for seed := int64(refused + 1); seed <= seeds; seed++ {
		mutate(seed)
	}
	verdict("after the faultless restart")
	count := map[string]int{}
	for _, o := range outcomes[1:] {
		count[o]++
	}
	if count["lost"] < refused || count["acked"] != seeds-refused {
		t.Errorf("seed outcomes %v, want %d lost and %d acked", count, refused, seeds-refused)
	}
	closers := []func(){client.CloseIdleConnections, cts.Close}
	for _, n := range nodes {
		closers = append(closers, n.kill)
	}
	storm.Settle(t, base, closers...)
	t.Logf("refused-appends: seed outcomes %v", count)
	st.Finish(0, "mutate:ok", "mutate:storage")
}
