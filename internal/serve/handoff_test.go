package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"ptx/internal/supervise"
	"ptx/internal/testutil"
)

// postAs sends a /publish request stamped with the cluster handoff
// headers, the way a coordinator routes work to a node.
func postAs(t *testing.T, ts *httptest.Server, body, runKey string, epoch uint64) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/publish", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderRunKey, runKey)
	req.Header.Set(HeaderEpoch, strconv.FormatUint(epoch, 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, buf.Bytes()
}

// TestHandoffAcrossNodes is the core cluster contract, run without any
// timing dependence: a node-budgeted request fails on node A leaving a
// fenced checkpoint in the shared store; re-routing it (at a bumped
// epoch, as the coordinator does after a failover) to node B resumes
// from that snapshot instead of restarting. A sequence of bounded
// attempts bouncing between the nodes completes work no single budget
// allows — and the combined output is byte-identical to an
// uninterrupted run's.
func TestHandoffAcrossNodes(t *testing.T) {
	store, err := supervise.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, tsA := newTestServer(t, Config{NodeID: "a", Store: store, CheckpointEvery: 1})
	_, tsB := newTestServer(t, Config{NodeID: "b", Store: store, CheckpointEvery: 1})
	nodes := []*httptest.Server{tsA, tsB}
	names := []string{"a", "b"}
	want := testutil.Golden(t, tinySpec, tinyDB, false)

	// max_nodes 3 is the smallest budget that can make progress (the
	// root expansion creates three items in one atomic step) while still
	// guaranteeing at least two failures before the tree completes.
	const body = `{"spec":"tiny","db":"tinydb","limits":{"max_nodes":3}}`
	const runKey = "handoff-run"
	resumedOnSuccess := false
	completed := false
	for round := 0; round < 50 && !completed; round++ {
		ts := nodes[round%2]
		status, hdr, respBody := postAs(t, ts, body, runKey, uint64(round+1))
		if got := hdr.Get("X-Ptserve-Node"); got != names[round%2] {
			t.Fatalf("round %d: X-Ptserve-Node = %q, want %q", round, got, names[round%2])
		}
		switch status {
		case http.StatusOK:
			if !bytes.Equal(respBody, want) {
				t.Fatalf("round %d: resumed output differs from golden:\n got %q\nwant %q", round, respBody, want)
			}
			resumedOnSuccess = hdr.Get("X-Ptserve-Resumed") == "true"
			if round == 0 {
				t.Fatal("budgeted run completed in one round; budget too loose to exercise handoff")
			}
			completed = true
		default:
			info := decodeError(t, status, respBody)
			if info.Kind != KindBudget {
				t.Fatalf("round %d: kind %q, want %q (%s)", round, info.Kind, KindBudget, respBody)
			}
			// The failure left a resumable snapshot for the next owner.
			if snap, _, err := store.Load(runKey); err != nil || snap == nil {
				t.Fatalf("round %d: no checkpoint after budget failure (snap=%v err=%v)", round, snap, err)
			}
		}
	}
	if !completed {
		t.Fatal("run never completed across 50 bounded handoffs")
	}
	if !resumedOnSuccess {
		t.Fatal("final round did not report X-Ptserve-Resumed: true")
	}
	// Success retires the run: the store entry is gone.
	if snap, _, err := store.Load(runKey); err != nil || snap != nil {
		t.Fatalf("checkpoint survived successful completion (snap=%v err=%v)", snap, err)
	}
}

// TestHandoffStaleEpochRefused: a request routed with an epoch OLDER
// than the stored checkpoint's is a zombie — a successor already owns
// the run — and must be refused up front with the conflict kind, doing
// no evaluation work.
func TestHandoffStaleEpochRefused(t *testing.T) {
	store, err := supervise.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{NodeID: "a", Store: store, CheckpointEvery: 1})

	// Establish a checkpoint at epoch 5 via a budget failure.
	const body = `{"spec":"tiny","db":"tinydb","limits":{"max_nodes":2}}`
	status, _, respBody := postAs(t, ts, body, "stale-run", 5)
	if info := decodeError(t, status, respBody); info.Kind != KindBudget {
		t.Fatalf("setup run: kind %q, want budget", info.Kind)
	}

	status, _, respBody = postAs(t, ts, body, "stale-run", 3)
	info := decodeError(t, status, respBody)
	if info.Kind != KindConflict {
		t.Fatalf("stale epoch: kind %q, want %q (%s)", info.Kind, KindConflict, respBody)
	}
	if s.Metrics().Fenced == 0 {
		t.Fatal("fence refusal not counted in Metrics.Fenced")
	}
	// The stored entry still belongs to the epoch-5 owner.
	if _, epoch, err := store.Load("stale-run"); err != nil || epoch != 5 {
		t.Fatalf("after refusal: stored epoch %d err %v, want 5 nil", epoch, err)
	}
}

// usurpingStore simulates a successor racing the current owner: the
// first Save under the victim key is preceded by a higher-epoch write,
// so the delegated Save returns *ErrFenced exactly as if another node
// had taken the run over mid-flight.
type usurpingStore struct {
	supervise.CheckpointStore
	key     string
	usurped bool
}

func (u *usurpingStore) Save(key string, epoch uint64, snap *supervise.Snapshot) error {
	if key == u.key && !u.usurped {
		u.usurped = true
		if err := u.CheckpointStore.Save(key, epoch+1, snap); err != nil {
			return err
		}
	}
	return u.CheckpointStore.Save(key, epoch, snap)
}

// TestHandoffFencedMidRun: losing ownership DURING a run (the first
// periodic checkpoint write is fenced) aborts the attempt with the
// conflict kind instead of burning cycles on a result nobody will
// accept — and the successor's higher-epoch snapshot survives.
func TestHandoffFencedMidRun(t *testing.T) {
	dir, err := supervise.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store := &usurpingStore{CheckpointStore: dir, key: "contested-run"}
	s, ts := newTestServer(t, Config{NodeID: "a", Store: store, CheckpointEvery: 1})

	status, _, respBody := postAs(t, ts, `{"spec":"tiny","db":"tinydb"}`, "contested-run", 7)
	info := decodeError(t, status, respBody)
	if info.Kind != KindConflict {
		t.Fatalf("fenced mid-run: kind %q, want %q (%s)", info.Kind, KindConflict, respBody)
	}
	if s.Metrics().Fenced == 0 {
		t.Fatal("mid-run fence not counted in Metrics.Fenced")
	}
	if _, epoch, err := dir.Load("contested-run"); err != nil || epoch != 8 {
		t.Fatalf("successor snapshot clobbered: epoch %d err %v, want 8 nil", epoch, err)
	}
}

// TestHandoffHeadersIgnoredWithoutStore: a standalone server must not
// honor handoff coordinates it cannot back with durable checkpoints.
func TestHandoffHeadersIgnoredWithoutStore(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, hdr, body := postAs(t, ts, `{"spec":"tiny","db":"tinydb"}`, "ignored-run", 3)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if got := hdr.Get("X-Ptserve-Resumed"); got != "" {
		t.Fatalf("storeless server reported X-Ptserve-Resumed=%q; headers must be ignored", got)
	}
	if !bytes.Equal(body, testutil.Golden(t, tinySpec, tinyDB, false)) {
		t.Fatal("storeless output differs from golden")
	}
}

// TestHandoffMalformedEpoch: a garbage X-Ptx-Epoch header is the
// client's (coordinator's) bug and maps to the validation kind.
func TestHandoffMalformedEpoch(t *testing.T) {
	store, err := supervise.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Store: store})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/publish", strings.NewReader(`{"spec":"tiny","db":"tinydb"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderRunKey, "run")
	req.Header.Set(HeaderEpoch, "not-a-number")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	info := decodeError(t, resp.StatusCode, buf.Bytes())
	if info.Kind != KindValidation || !strings.Contains(info.Message, HeaderEpoch) {
		t.Fatalf("malformed epoch: %s", buf.Bytes())
	}
}

// TestWarm: the rebalance hint primes known pairs, skips unknown ones,
// and rejects malformed bodies with the validation kind.
func TestWarm(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/warm", "application/json",
		strings.NewReader(`{"pairs":[["tiny","tinydb"],["ghost","tinydb"]]}`))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Warmed int `json:"warmed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.Warmed != 1 {
		t.Fatalf("warmed %d pairs, want 1 (unknown pair skipped)", out.Warmed)
	}
	if s.Metrics().Warmed != 1 {
		t.Fatalf("Metrics.Warmed = %d, want 1", s.Metrics().Warmed)
	}
	// A warmed pair answers its first publish from the shared memo.
	status, hdr, body := post(t, ts, `{"spec":"tiny","db":"tinydb"}`)
	if status != http.StatusOK {
		t.Fatalf("publish after warm: %d %s", status, body)
	}
	_ = hdr

	resp, err = http.Post(ts.URL+"/warm", "application/json", strings.NewReader(`{"bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if info := decodeError(t, resp.StatusCode, buf.Bytes()); info.Kind != KindValidation {
		t.Fatalf("malformed warm body: kind %q, want validation", info.Kind)
	}

	resp, err = http.Get(ts.URL + "/warm")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /warm = %d", resp.StatusCode)
	}
}
