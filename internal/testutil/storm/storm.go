// Package storm is the kit every seeded fault harness is a configuration
// of. Each storm brings its own fault injector (a node killer, a
// partitioner, WAL crash points, a mid-storm drain); the kit records each
// operation and checks it against the determinism guarantee: whatever the
// faults, every request ends in golden bytes or a typed error. It imports
// neither serve nor cluster, so the caller passes the kind↔status pin.
package storm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ptx/internal/testutil"
)

// Seeds is the batch size of a storm: 120 seeded operations, or 48 under
// the race detector (coverage is per shape, not per seed; the CI smoke
// jobs run exactly this reduced batch).
func Seeds() int {
	if raceEnabled {
		return 48
	}
	return 120
}

// Record is one operation as the storm saw it.
type Record struct {
	Seed           int64
	Op             string
	Invoke, Return time.Time
	Status         int
	Kind           string // a typed error's kind
	Golden         int    // the golden a 200 matched, -1 for none
	Seq            uint64 // the sequence number a 200 mutate acked
	Violation      string
}

// Outcome names the record in the tally: "op:ok", "op:<kind>" for a typed
// error, or "op:violation".
func (r Record) Outcome() string {
	switch {
	case r.Violation != "":
		return r.Op + ":violation"
	case r.Kind != "":
		return r.Op + ":" + r.Kind
	}
	return r.Op + ":ok"
}

// Op is one seeded request. A request with a body is a POST, one without
// a GET.
type Op struct {
	Seed      int64
	Name      string // publish, mutate or watch; a 200 mutate must ack a seq
	URL, Body string
	Goldens   [][]byte // a 200 must equal one of them; nil accepts any body
	Kinds     []string // the kinds a typed error may carry; nil accepts every pinned kind
	Strict    bool     // only a 200 is allowed
	Case      any      // the seeded case, written to the artifact
}

// Publish is one seeded publish request; each storm draws its fields
// from the seed alone, so a CI failure replays locally with the same
// number.
type Publish struct {
	Seed      int64
	Spec, DB  string
	Canonical bool
	Retries   int
	MaxNodes  int     // 0: the server's default
	QueryP    float64 // injected query fault rate
	TimeoutMS int64
}

// Body is the request's JSON.
func (c Publish) Body() string {
	req := map[string]any{
		"spec":      c.Spec,
		"db":        c.DB,
		"canonical": c.Canonical,
		"retries":   c.Retries,
		"limits":    map[string]any{"timeout_ms": c.TimeoutMS, "max_nodes": c.MaxNodes},
	}
	if c.QueryP > 0 {
		req["inject"] = map[string]any{"seed": c.Seed, "probs": map[string]float64{"query": c.QueryP}}
	}
	b, _ := json.Marshal(req)
	return string(b)
}

// Storm records and checks the operations of one harness run. Its methods
// are safe for concurrent use and never stop the calling goroutine: a
// violation fails the test with Errorf and is dumped to CHAOS_ARTIFACT_DIR.
type Storm struct {
	t    *testing.T
	name string
	pin  func(kind string) (status int, known bool)
	// Bound, when set, is the time within which every operation returns.
	Bound time.Duration

	mu   sync.Mutex
	recs []Record
}

// New starts a storm named name (the artifact prefix) whose typed errors
// must carry the status pin gives their kind.
func New(t *testing.T, name string, pin func(kind string) (int, bool)) *Storm {
	return &Storm{t: t, name: name, pin: pin}
}

// Start runs op(seed) for seeds 1..n, each on its own goroutine and at
// most width at once (0: no bound), and returns a wait that blocks until
// every op has returned.
func (s *Storm) Start(n, width int, op func(seed int64)) (wait func()) {
	if width == 0 {
		width = n
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, width)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seed := int64(1); seed <= int64(n); seed++ {
			sem <- struct{}{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				op(seed)
			}()
		}
	}()
	return wg.Wait
}

// Do sends op with client, checks the outcome and records it. It returns
// the record with the response's header and body (nil on a transport
// error). The outcome rule: a transport or read error is a violation; a
// 200 must equal one of op's goldens, and a 200 mutate must ack a seq;
// anything else must be the JSON error schema with the pinned status for
// its kind and a kind op allows; and with Bound set, the operation must
// return within it.
func (s *Storm) Do(client *http.Client, op Op) (Record, http.Header, []byte) {
	s.t.Helper()
	r := Record{Seed: op.Seed, Op: op.Name, Golden: -1, Invoke: time.Now()}
	var resp *http.Response
	var err error
	if op.Body == "" {
		resp, err = client.Get(op.URL)
	} else {
		resp, err = client.Post(op.URL, "application/json", strings.NewReader(op.Body))
	}
	var hdr http.Header
	var body []byte
	if err == nil {
		r.Status, hdr = resp.StatusCode, resp.Header
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.Return = time.Now()
	var v []string
	if s.Bound > 0 && r.Return.Sub(r.Invoke) > s.Bound {
		v = append(v, fmt.Sprintf("took %v, beyond the %v deadline bound", r.Return.Sub(r.Invoke), s.Bound))
	}
	switch {
	case err != nil:
		v = append(v, fmt.Sprintf("transport or read error: %v", err))
	case r.Status == http.StatusOK:
		if op.Goldens != nil {
			r.Golden = slices.IndexFunc(op.Goldens, func(g []byte) bool { return string(g) == string(body) })
			if r.Golden < 0 {
				v = append(v, fmt.Sprintf("200 body (%d bytes) equals no golden", len(body)))
			}
		}
		if op.Name == "mutate" {
			var ack struct {
				Seq uint64 `json:"seq"`
			}
			if json.Unmarshal(body, &ack) != nil || ack.Seq == 0 {
				v = append(v, fmt.Sprintf("200 mutate without a seq: %s", body))
			}
			r.Seq = ack.Seq
		}
	default:
		var eb struct {
			Error struct {
				Kind string `json:"kind"`
			} `json:"error"`
		}
		if json.Unmarshal(body, &eb) != nil || eb.Error.Kind == "" {
			v = append(v, fmt.Sprintf("untyped error body (status %d): %s", r.Status, body))
			break
		}
		r.Kind = eb.Error.Kind
		if want, known := s.pin(r.Kind); !known || want != r.Status {
			v = append(v, fmt.Sprintf("kind %q with status %d (pinned %d)", r.Kind, r.Status, want))
		}
		if op.Strict || op.Kinds != nil && !slices.Contains(op.Kinds, r.Kind) {
			v = append(v, fmt.Sprintf("unexpected kind %q: %s", r.Kind, body))
		}
	}
	r.Violation = strings.Join(v, "; ")
	s.Add(r, op.Case, op.Body)
	return r, hdr, body
}

// Add records r, which the caller checked itself; a violation fails the
// test and dumps c (the seeded case) and the request.
func (s *Storm) Add(r Record, c any, request string) {
	s.t.Helper()
	s.mu.Lock()
	s.recs = append(s.recs, r)
	s.mu.Unlock()
	if r.Violation != "" {
		s.fail(r.Seed, fmt.Sprintf("case=%+v\nrecord=%+v\nrequest=%s", c, r, request), r.Op+": "+r.Violation)
	}
}

// Fail reports a violation a storm found by its own checks, dumping c,
// the seeded case.
func (s *Storm) Fail(seed int64, c any, format string, args ...any) {
	s.t.Helper()
	s.fail(seed, fmt.Sprintf("case=%+v", c), fmt.Sprintf(format, args...))
}

func (s *Storm) fail(seed int64, scenario, violation string) {
	s.t.Helper()
	s.t.Errorf("%s seed %d: %s", s.name, seed, violation)
	Artifact(s.t, fmt.Sprintf("%s-%d.txt", s.name, seed), []byte(scenario+"\nviolation="+violation+"\n"))
}

// Finish makes the cross-record checks and logs the tally:
// no seq is acked twice (a storm mutates one database), there are n
// records when n > 0 (no operation was lost without an answer), and each
// floor outcome occurred (the storm kept its coverage). It returns the
// tally by outcome, for floors on an outcome's share. Call it on the
// test goroutine once every operation has returned.
func (s *Storm) Finish(n int, floors ...string) map[string]int {
	s.t.Helper()
	tally := map[string]int{}
	acked := map[uint64][]int64{}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.recs {
		tally[r.Outcome()]++
		if r.Seq != 0 {
			acked[r.Seq] = append(acked[r.Seq], r.Seed)
		}
	}
	s.t.Logf("%s: %d operations %v", s.name, len(s.recs), tally)
	for seq, seeds := range acked {
		if len(seeds) > 1 {
			s.t.Errorf("%s: DUAL ACK: seq %d acked for %d mutations (seeds %v)", s.name, seq, len(seeds), seeds)
		}
	}
	if n > 0 && len(s.recs) != n {
		s.t.Errorf("%s: %d records of %d requests: some request was LOST without an answer", s.name, len(s.recs), n)
	}
	for _, f := range floors {
		if tally[f] == 0 {
			s.t.Errorf("%s lost coverage: no %s outcome", s.name, f)
		}
	}
	return tally
}

// Artifact appends data to the file name in CHAOS_ARTIFACT_DIR, when that
// variable is set, so a failing CI run ships the replayable scenario.
func Artifact(t testing.TB, name string, data []byte) {
	dir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		var f *os.File
		if f, err = os.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644); err == nil {
			_, err = f.Write(data)
			err = errors.Join(err, f.Close())
		}
	}
	if err != nil {
		t.Logf("artifact %s: %v", name, err)
	}
}

// Drain drains each server under a 5-s deadline and fails the test if a
// drain errs or returns more than a 2-s grace past it. Call it on the test
// goroutine.
func Drain(t *testing.T, drains ...func(context.Context) error) {
	t.Helper()
	for _, drain := range drains {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		start := time.Now()
		err := drain(ctx)
		cancel()
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		if d := time.Since(start); d > 7*time.Second {
			t.Fatalf("drain took %v, beyond deadline+grace", d)
		}
	}
}

// Settle runs each closer (listeners, client connections), drops the
// default transport's idle connections and fails the test unless the
// goroutine count falls back to base.
func Settle(t *testing.T, base int, closers ...func()) {
	t.Helper()
	for _, c := range closers {
		c()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	testutil.SettledGoroutines(t, base)
}

// Background wraps t for a fault injector's goroutine: Fatal reports with
// Error and ends only that goroutine, as testing allows FailNow only on
// the test's own.
type Background struct{ testing.TB }

func (b Background) Fatal(args ...any) {
	b.Error(args...)
	runtime.Goexit()
}

func (b Background) Fatalf(format string, args ...any) {
	b.Errorf(format, args...)
	runtime.Goexit()
}
