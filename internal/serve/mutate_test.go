// Mutation endpoint tests: /mutate must swap registry pairs, repair
// live views, and wake watchers; /watch must long-poll and stream; and
// a pair parsed AFTER mutations must replay the delta log.
package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"ptx/internal/incr"
	"ptx/internal/testutil"
	"ptx/internal/testutil/storm"
)

// stormTuple is the single course toggled by these tests: inserting it
// adds one top-level course to every registrar publication.
var stormTuple = []string{"CS999", "StormCourse", "CS"}

func mutateBody(op string) string {
	b, _ := json.Marshal(map[string]any{
		"spec": "tau1",
		"db":   "registrar",
		"ops": []map[string]any{
			{"op": op, "rel": "course", "tuple": stormTuple},
		},
	})
	return string(b)
}

// exampleSources loads the example spec/db texts the goldens derive
// from.
func exampleSources(t *testing.T) (spec, db string) {
	t.Helper()
	sb, err := os.ReadFile("../../examples/specs/tau1.pt")
	if err != nil {
		t.Fatal(err)
	}
	dbb, err := os.ReadFile("../../examples/specs/registrar.db")
	if err != nil {
		t.Fatal(err)
	}
	return string(sb), string(dbb)
}

// withStormTuple appends the toggled course to the db source, giving
// the post-insert golden.
func withStormTuple(db string) string {
	return db + fmt.Sprintf("\ncourse(%s, %s, %s)\n", stormTuple[0], stormTuple[1], stormTuple[2])
}

func postJSON(t *testing.T, client *http.Client, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading %s response: %v", url, err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decoding %s: %v\nbody: %s", url, err, buf.Bytes())
		}
	}
	return resp.StatusCode
}

func newMutateServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	reg := NewRegistry()
	if err := reg.LoadDir("../../examples/specs"); err != nil {
		t.Fatalf("loading example specs: %v", err)
	}
	s, err := New(Config{Registry: reg, Workers: 4, Queue: 8, DrainGrace: 2 * time.Second, AllowInject: true})
	if err != nil {
		t.Fatal(err)
	}
	return s, httptest.NewServer(s.Handler())
}

func TestMutateRepairsLiveViewAndPublish(t *testing.T) {
	base := runtime.NumGoroutine()
	s, ts := newMutateServer(t)
	client := ts.Client()
	spec, db := exampleSources(t)
	goldenBase := testutil.Golden(t, spec, db, true)
	goldenAlt := testutil.Golden(t, spec, withStormTuple(db), true)

	// First /watch creates the live view at version 1 with no history.
	var wr watchResponse
	if code := getJSON(t, client, ts.URL+"/watch?spec=tau1&db=registrar", &wr); code != http.StatusOK {
		t.Fatalf("watch: status %d", code)
	}
	if wr.Version != 1 || len(wr.Changes) != 0 || wr.Resync {
		t.Fatalf("fresh watch = %+v, want version 1, no changes", wr)
	}

	// Publish serves the pre-delta bytes.
	resp, body := postJSON(t, client, ts.URL+"/publish", `{"spec":"tau1","db":"registrar","canonical":true}`)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, goldenBase) {
		t.Fatalf("pre-delta publish: status %d, golden match %v", resp.StatusCode, bytes.Equal(body, goldenBase))
	}

	// Mutate: the view repairs incrementally and reports it.
	resp, body = postJSON(t, client, ts.URL+"/mutate", mutateBody("insert"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: status %d: %s", resp.StatusCode, body)
	}
	var mr mutateResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatalf("mutate response: %v", err)
	}
	if len(mr.Views) != 1 || mr.Views[0].Spec != "tau1" || mr.Views[0].Error != "" {
		t.Fatalf("mutate views = %+v", mr.Views)
	}
	rep := mr.Views[0].Report
	if rep == nil || rep.Version != 2 || rep.Effective != 1 {
		t.Fatalf("repair report = %+v, want version 2 with 1 effective op", rep)
	}
	if rep.FullRebuild {
		t.Fatal("a 1-tuple course insert must repair surgically, not rebuild")
	}

	// The repaired view and a fresh publish agree on the post-delta bytes.
	if code := getJSON(t, client, ts.URL+"/watch?spec=tau1&db=registrar&after=1", &wr); code != http.StatusOK {
		t.Fatalf("watch after mutate: %d", code)
	}
	if wr.Version != 2 || len(wr.Changes) != 1 || wr.Changes[0].Version != 2 {
		t.Fatalf("watch after=1 = %+v, want exactly the version-2 change", wr)
	}
	resp, body = postJSON(t, client, ts.URL+"/publish", `{"spec":"tau1","db":"registrar","canonical":true}`)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, goldenAlt) {
		t.Fatalf("post-delta publish: status %d, alt-golden match %v", resp.StatusCode, bytes.Equal(body, goldenAlt))
	}
	viewBytes, ver, err := s.liveView("tau1", "registrar").view.Snapshot(true)
	if err != nil || ver != 2 {
		t.Fatalf("view snapshot: version %d, err %v", ver, err)
	}
	if string(viewBytes)+"\n" != string(goldenAlt) {
		t.Fatal("repaired view bytes differ from the post-delta golden")
	}

	// Deleting the tuple again returns everything to the base golden.
	resp, body = postJSON(t, client, ts.URL+"/mutate", mutateBody("delete"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete mutate: %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, client, ts.URL+"/publish", `{"spec":"tau1","db":"registrar","canonical":true}`)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, goldenBase) {
		t.Fatal("post-delete publish differs from the base golden")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	storm.Settle(t, base, ts.Close)
}

// TestMutateValidation: unknown names, malformed ops and arity
// violations are typed 400s and touch nothing.
func TestMutateValidation(t *testing.T) {
	s, ts := newMutateServer(t)
	defer ts.Close()
	defer s.Close()
	client := ts.Client()
	cases := []struct {
		name, body string
	}{
		{"unknown spec", `{"spec":"nope","db":"registrar","ops":[{"op":"insert","rel":"course","tuple":["a","b","c"]}]}`},
		{"unknown db", `{"spec":"tau1","db":"nope","ops":[{"op":"insert","rel":"course","tuple":["a","b","c"]}]}`},
		{"empty ops", `{"spec":"tau1","db":"registrar","ops":[]}`},
		{"bad op", `{"spec":"tau1","db":"registrar","ops":[{"op":"upsert","rel":"course","tuple":["a","b","c"]}]}`},
		{"unknown rel", `{"spec":"tau1","db":"registrar","ops":[{"op":"insert","rel":"enrolled","tuple":["a"]}]}`},
		{"wrong arity", `{"spec":"tau1","db":"registrar","ops":[{"op":"insert","rel":"course","tuple":["a"]}]}`},
		{"unknown field", `{"spec":"tau1","db":"registrar","ops":[],"extra":1}`},
	}
	for _, c := range cases {
		resp, body := postJSON(t, client, ts.URL+"/mutate", c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", c.name, resp.StatusCode, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Kind != KindValidation {
			t.Errorf("%s: untyped or wrong-kind error: %s", c.name, body)
		}
	}
	if got := s.Metrics().Mutated; got != 0 {
		t.Fatalf("rejected mutations counted as accepted: %d", got)
	}
}

// TestDeltaLogReplayForLatePair: a (spec, db) pair parsed AFTER
// mutations must see them — the registry replays the database's delta
// log into the freshly parsed instance.
func TestDeltaLogReplayForLatePair(t *testing.T) {
	s, ts := newMutateServer(t)
	defer ts.Close()
	defer s.Close()
	client := ts.Client()

	resp, body := postJSON(t, client, ts.URL+"/mutate", mutateBody("insert"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d: %s", resp.StatusCode, body)
	}
	// tau3 shares the registrar schema and has never been published:
	// its first parse happens now, after the mutation.
	specSrc, err := os.ReadFile("../../examples/specs/tau3.pt")
	if err != nil {
		t.Fatal(err)
	}
	_, db := exampleSources(t)
	want := testutil.Golden(t, string(specSrc), withStormTuple(db), true)
	resp, body = postJSON(t, client, ts.URL+"/publish", `{"spec":"tau3","db":"registrar","canonical":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("late publish: %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("late-parsed pair did not replay the delta log")
	}
}

// TestWatchLongPollWakesOnMutate: a parked long-poll returns as soon as
// a mutation commits, carrying the new report.
func TestWatchLongPollWakesOnMutate(t *testing.T) {
	s, ts := newMutateServer(t)
	defer ts.Close()
	defer s.Close()
	client := ts.Client()

	// Prime the view, then park a watcher past its version.
	var wr watchResponse
	if code := getJSON(t, client, ts.URL+"/watch?spec=tau1&db=registrar", &wr); code != http.StatusOK {
		t.Fatalf("prime watch: %d", code)
	}
	done := make(chan watchResponse, 1)
	go func() {
		var got watchResponse
		getJSON(t, client, ts.URL+"/watch?spec=tau1&db=registrar&after=1&wait_ms=5000", &got)
		done <- got
	}()
	time.Sleep(20 * time.Millisecond) // let the poller park
	if resp, body := postJSON(t, client, ts.URL+"/mutate", mutateBody("insert")); resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d: %s", resp.StatusCode, body)
	}
	select {
	case got := <-done:
		if got.Version != 2 || len(got.Changes) != 1 {
			t.Fatalf("woken poll = %+v, want the version-2 change", got)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("long-poll did not wake on mutation")
	}
}

// TestWatchSSEStreamsChanges: the SSE arm delivers one change event per
// mutation and terminates cleanly on client disconnect.
func TestWatchSSEStreamsChanges(t *testing.T) {
	s, ts := newMutateServer(t)
	defer ts.Close()
	defer s.Close()
	client := ts.Client()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/watch?spec=tau1&db=registrar&after=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}

	events := make(chan incr.Report, 4)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		inChange := false
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "event: change":
				inChange = true
			case inChange && strings.HasPrefix(line, "data: "):
				var rep incr.Report
				if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &rep) == nil {
					events <- rep
				}
				inChange = false
			}
		}
	}()

	for i, op := range []string{"insert", "delete"} {
		if resp, body := postJSON(t, client, ts.URL+"/mutate", mutateBody(op)); resp.StatusCode != http.StatusOK {
			t.Fatalf("mutate %d: %d: %s", i, resp.StatusCode, body)
		}
		select {
		case rep, ok := <-events:
			if !ok {
				t.Fatal("SSE stream closed early")
			}
			if rep.Version != uint64(i+2) {
				t.Fatalf("event %d has version %d, want %d", i, rep.Version, i+2)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("no SSE event after mutation %d", i)
		}
	}
	cancel() // client walks away; the handler must unwind
	for range events {
	}
}

// TestMutateWhileDraining: a draining server refuses mutations with the
// typed 503 every other endpoint uses.
func TestMutateWhileDraining(t *testing.T) {
	s, ts := newMutateServer(t)
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/mutate", mutateBody("insert"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mutate while draining: %d: %s", resp.StatusCode, body)
	}
}
