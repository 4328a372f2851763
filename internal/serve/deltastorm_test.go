// The delta storm: concurrent /publish, /mutate and /watch traffic
// toggling a single course tuple. The coherence invariant is binary —
// with exactly one tuple ever mutated, every successful publish must be
// byte-identical to the pre-delta OR the post-delta golden, never a
// torn in-between — and the server must drain cleanly mid-mutation with
// zero leaked goroutines.
package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ptx/internal/testutil"
	"ptx/internal/testutil/storm"
)

// deltaStormCase is one seeded actor: a publisher, a mutator, or a
// watcher, derived from the seed alone.
type deltaStormCase struct {
	Seed      int64
	Role      string // publish | mutate | watch
	Canonical bool
	WaitMS    int64
}

func newDeltaStormCase(seed int64) deltaStormCase {
	rng := rand.New(rand.NewSource(seed))
	return deltaStormCase{
		Seed:      seed,
		Role:      []string{"publish", "publish", "mutate", "watch"}[rng.Intn(4)],
		Canonical: rng.Intn(2) == 0,
		WaitMS:    int64(rng.Intn(40)),
	}
}

// TestDeltaStorm is the live-view chaos harness: seeded concurrent
// publishers, mutators and watchers over one toggled tuple, every
// publish response golden-pre or golden-post, every mutate acked with
// its views repaired, every watch response well-formed with monotone
// versions, then a clean drain and settled goroutines.
func TestDeltaStorm(t *testing.T) {
	base := runtime.NumGoroutine()
	s, ts := newMutateServer(t)
	client := ts.Client()
	spec, db := exampleSources(t)
	goldens := map[bool][][]byte{
		true:  {testutil.Golden(t, spec, db, true), testutil.Golden(t, spec, withStormTuple(db), true)},
		false: {testutil.Golden(t, spec, db, false), testutil.Golden(t, spec, withStormTuple(db), false)},
	}

	// Prime the live view so watchers and mutators race over a shared
	// tree from the first seed on.
	var prime watchResponse
	if code := getJSON(t, client, ts.URL+"/watch?spec=tau1&db=registrar", &prime); code != http.StatusOK {
		t.Fatalf("prime watch: %d", code)
	}

	st := storm.New(t, "deltastorm", StatusForKind)
	var effective atomic.Int64
	// The mutator's toggle direction alternates globally so the tuple
	// flips state throughout the storm rather than saturating.
	var toggle sync.Mutex
	present := false
	st.Start(storm.Seeds(), 12, func(seed int64) {
		c := newDeltaStormCase(seed)
		switch c.Role {
		case "publish":
			st.Do(client, storm.Op{
				Seed: seed, Name: "publish", URL: ts.URL + "/publish", Case: c,
				Body:    fmt.Sprintf(`{"spec":"tau1","db":"registrar","canonical":%v}`, c.Canonical),
				Goldens: goldens[c.Canonical],
			})
		case "mutate":
			toggle.Lock()
			op := "insert"
			if present {
				op = "delete"
			}
			present = !present
			toggle.Unlock()
			r, _, got := st.Do(client, storm.Op{Seed: seed, Name: "mutate", URL: ts.URL + "/mutate", Body: mutateBody(op), Case: c, Strict: true})
			var mr mutateResponse
			if r.Violation != "" {
				return
			} else if err := json.Unmarshal(got, &mr); err != nil {
				st.Fail(seed, c, "mutate response: %v", err)
				return
			}
			for _, v := range mr.Views {
				if v.Error != "" {
					st.Fail(seed, c, "view %s repair failed: %s", v.Spec, v.Error)
				}
				if v.Report != nil && v.Report.Effective > 0 {
					effective.Add(1)
				}
			}
		case "watch":
			url := fmt.Sprintf("%s/watch?spec=tau1&db=registrar&after=1&wait_ms=%d", ts.URL, c.WaitMS)
			r, _, got := st.Do(client, storm.Op{Seed: seed, Name: "watch", URL: url, Case: c, Strict: true})
			var wr watchResponse
			if r.Violation != "" {
				return
			} else if err := json.Unmarshal(got, &wr); err != nil {
				st.Fail(seed, c, "watch response: %v", err)
				return
			}
			last := uint64(1)
			for _, rep := range wr.Changes {
				if rep.Version <= last {
					st.Fail(seed, c, "change versions not strictly increasing")
					return
				}
				last = rep.Version
			}
			if last > wr.Version {
				st.Fail(seed, c, "change version %d beyond view version %d", last, wr.Version)
			}
		}
	})()

	storm.Drain(t, s.Drain)
	storm.Settle(t, base, ts.Close)
	st.Finish(storm.Seeds(), "publish:ok", "mutate:ok", "watch:ok")
	if effective.Load() == 0 {
		t.Error("no mutation was effective; the toggle never moved")
	}
}

// TestDeltaStormDrainMidMutation pulls the plug while mutations and
// long-poll watchers are in flight: every response is still golden
// bytes, a well-formed watch reply, or a typed error; parked watchers
// are released by the drain; and nothing leaks.
func TestDeltaStormDrainMidMutation(t *testing.T) {
	base := runtime.NumGoroutine()
	s, ts := newMutateServer(t)
	client := ts.Client()
	spec, db := exampleSources(t)
	goldens := [][]byte{testutil.Golden(t, spec, db, true), testutil.Golden(t, spec, withStormTuple(db), true)}

	var prime watchResponse
	if code := getJSON(t, client, ts.URL+"/watch?spec=tau1&db=registrar", &prime); code != http.StatusOK {
		t.Fatalf("prime watch: %d", code)
	}

	n := 24
	if raceEnabled {
		n = 12
	}
	// The last `slow` seeds are publishes no document answers: every
	// query faults, so each holds a worker through five retries (about
	// 60 ms of backoff), and the drain meets them running or queued.
	const slow = 12
	st := storm.New(t, "deltastorm-drain", StatusForKind)
	wait := st.Start(n+slow, 0, func(seed int64) {
		if seed > int64(n) {
			body := fmt.Sprintf(`{"spec":"tau1","db":"registrar","canonical":true,"retries":5,"inject":{"seed":%d,"probs":{"query":1}}}`, seed)
			st.Do(client, storm.Op{Seed: seed, Name: "publish", URL: ts.URL + "/publish", Body: body, Goldens: goldens})
			return
		}
		switch i := seed - 1; i % 3 {
		case 0:
			st.Do(client, storm.Op{Seed: seed, Name: "publish", URL: ts.URL + "/publish", Body: `{"spec":"tau1","db":"registrar","canonical":true}`, Goldens: goldens})
		case 1:
			op := "insert"
			if i%2 == 0 {
				op = "delete"
			}
			st.Do(client, storm.Op{Seed: seed, Name: "mutate", URL: ts.URL + "/mutate", Body: mutateBody(op)})
		case 2:
			// Long waits: these watchers are parked when the drain
			// lands and must be released by it, not leak past it.
			r, _, got := st.Do(client, storm.Op{Seed: seed, Name: "watch", URL: ts.URL + "/watch?spec=tau1&db=registrar&after=99999&wait_ms=30000"})
			if r.Outcome() == "watch:ok" && json.Unmarshal(got, new(watchResponse)) != nil {
				st.Fail(seed, nil, "watch response is not JSON: %s", got)
			}
		}
	})

	time.Sleep(5 * time.Millisecond)
	storm.Drain(t, s.Drain)
	wait()
	storm.Settle(t, base, ts.Close)
	st.Finish(n+slow, "publish:draining")
}
