package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// tinySpec/tinyDB: a two-level publish small enough that goldens are
// obvious but real enough to exercise registers and text rendering.
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

const badSpec = `transducer broken root`

// newTestServer builds a server over a registry holding tiny/tinydb
// plus any extra (name, source) pairs, wrapped in an httptest server.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		reg := NewRegistry()
		if err := reg.RegisterSpec("tiny", tinySpec); err != nil {
			t.Fatalf("RegisterSpec: %v", err)
		}
		if err := reg.RegisterDB("tinydb", tinyDB); err != nil {
			t.Fatalf("RegisterDB: %v", err)
		}
		cfg.Registry = reg
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// post sends a /publish request and returns status, headers and body.
func post(t *testing.T, ts *httptest.Server, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/publish", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /publish: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp.StatusCode, resp.Header, b
}

// decodeError parses the stable JSON error schema and cross-checks the
// status line against the kind's pinned status — the pair must never
// disagree, whatever path produced the error.
func decodeError(t *testing.T, status int, body []byte) ErrorInfo {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body is not the JSON schema: %v\n%s", err, body)
	}
	if eb.Error.Kind == "" {
		t.Fatalf("error body has empty kind: %s", body)
	}
	want, ok := StatusForKind(eb.Error.Kind)
	if !ok {
		t.Fatalf("unknown error kind %q", eb.Error.Kind)
	}
	if status != want {
		t.Fatalf("kind %q arrived with status %d, pinned mapping says %d", eb.Error.Kind, status, want)
	}
	return eb.Error
}
