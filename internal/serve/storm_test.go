package serve

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"ptx/internal/testutil"
	"ptx/internal/testutil/storm"
)

// newStormCase draws one request of the serve storm from its seed: a
// third of the cases inject query faults (sometimes hot enough to
// exhaust the retries), a sixth carry a starvation node budget.
func newStormCase(seed int64) storm.Publish {
	rng := rand.New(rand.NewSource(seed))
	c := storm.Publish{
		Seed:      seed,
		Spec:      []string{"tau1", "tau2v"}[rng.Intn(2)],
		DB:        "registrar",
		Canonical: rng.Intn(2) == 0,
		Retries:   rng.Intn(3),
		TimeoutMS: 2000,
	}
	switch rng.Intn(6) {
	case 0, 1:
		c.QueryP = []float64{0.1, 0.3, 0.9}[rng.Intn(3)]
	case 2:
		c.MaxNodes = 1 + rng.Intn(3)
	}
	return c
}

// TestServeStorm is the server-level chaos harness: a seeded request
// storm (mixed specs, renderings, budgets, fault rates, supervised
// retries) against an in-process server, asserting for every request
// golden-bytes-or-typed-error and, at the end, a clean drain within its
// deadline and no leaked goroutines.
func TestServeStorm(t *testing.T) {
	base := runtime.NumGoroutine()
	reg := NewRegistry()
	if err := reg.LoadDir("../../examples/specs"); err != nil {
		t.Fatalf("loading example specs: %v", err)
	}
	s, err := New(Config{
		Registry:    reg,
		Workers:     4,
		Queue:       8,
		AllowInject: true,
		DrainGrace:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	// Goldens straight from the engine, once per (spec, rendering).
	golden := map[bool]map[string][]byte{false: {}, true: {}}
	db, err := os.ReadFile("../../examples/specs/registrar.db")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"tau1", "tau2v"} {
		src, err := os.ReadFile(filepath.Join("../../examples/specs", spec+".pt"))
		if err != nil {
			t.Fatal(err)
		}
		golden[false][spec] = testutil.Golden(t, string(src), string(db), false)
		golden[true][spec] = testutil.Golden(t, string(src), string(db), true)
	}

	st := storm.New(t, "storm", StatusForKind)
	client := ts.Client()
	st.Start(storm.Seeds(), 12, func(seed int64) {
		c := newStormCase(seed)
		st.Do(client, storm.Op{
			Seed: seed, Name: "publish", URL: ts.URL + "/publish", Body: c.Body(), Case: c,
			Goldens: [][]byte{golden[c.Canonical][c.Spec]},
			Kinds:   []string{KindBudget, KindTransient, KindCanceled, KindOverloaded},
		})
	})()

	storm.Drain(t, s.Drain)
	storm.Settle(t, base, ts.Close)
	// The case distribution is tuned so success, budget exhaustion and
	// injected-fault failure all occur — a storm that never reaches one
	// of those states has lost its coverage.
	st.Finish(storm.Seeds(), "publish:ok", "publish:budget", "publish:transient")
}

// TestStormDrainUnderLoad fires a storm and drains MID-flight: every
// response must still be golden bytes or a typed error (draining and
// canceled now included), and the drain must finish inside deadline +
// grace even though requests are being actively refused.
func TestStormDrainUnderLoad(t *testing.T) {
	base := runtime.NumGoroutine()
	reg := NewRegistry()
	if err := reg.LoadDir("../../examples/specs"); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Registry: reg, Workers: 2, Queue: 4, AllowInject: true, DrainGrace: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	spec, db := exampleSources(t)
	golden := [][]byte{testutil.Golden(t, spec, db, false)}

	n := 24
	if raceEnabled {
		n = 12
	}
	// The last `slow` seeds are publishes no document answers: every
	// query faults, so each holds a worker through five retries (about
	// 60 ms of backoff), and the drain meets them running or queued.
	const slow = 8
	st := storm.New(t, "storm-drain", StatusForKind)
	client := ts.Client()
	wait := st.Start(n+slow, 0, func(seed int64) {
		body := `{"spec":"tau1","db":"registrar"}`
		if seed > int64(n) {
			body = fmt.Sprintf(`{"spec":"tau1","db":"registrar","retries":5,"inject":{"seed":%d,"probs":{"query":1}}}`, seed)
		}
		st.Do(client, storm.Op{Seed: seed, Name: "publish", URL: ts.URL + "/publish", Body: body, Goldens: golden})
	})
	// Let some requests in, then pull the plug while others are queued.
	time.Sleep(5 * time.Millisecond)
	storm.Drain(t, s.Drain)
	wait()
	storm.Settle(t, base, ts.Close)
	st.Finish(n+slow, "publish:draining")
}
