package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"

	"ptx/internal/serve"
)

// TestCoordinatorRouteTable walks every route of Handler. A wrong method
// gets 405 with the route's Allow header; /healthz and /readyz answer any
// method; HEAD /watch gets 405 with Allow: GET and is not proxied; a
// malformed or oversized body, a bad deadline and a malformed join count
// under rejected; and while the coordinator drains, each gated route
// answers 503 draining and counts it under rejected, and no other route
// is gated.
func TestCoordinatorRouteTable(t *testing.T) {
	routes := []struct {
		path, method, allow string // method "" answers any
		gated               bool
	}{
		{"/publish", http.MethodPost, "POST", true},
		{"/mutate", http.MethodPost, "POST", true},
		{"/watch", http.MethodGet, "GET, HEAD", true},
		{"/join", http.MethodPost, "POST", false},
		{"/healthz", "", "", false},
		{"/readyz", "", "", false},
	}
	coord, _, nodes := newTestCluster(t, 1, Config{})
	h := coord.Handler()
	do := func(method, path string) (int, http.Header, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader("{}")))
		var eb struct {
			Error struct {
				Kind string `json:"kind"`
			} `json:"error"`
		}
		_ = json.Unmarshal(rec.Body.Bytes(), &eb)
		return rec.Code, rec.Header(), eb.Error.Kind
	}

	for _, rt := range routes {
		if rt.method == "" {
			for _, m := range []string{http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodDelete} {
				if code, _, _ := do(m, rt.path); code != http.StatusOK {
					t.Errorf("%s %s = %d, want 200", m, rt.path, code)
				}
			}
			continue
		}
		m := http.MethodGet
		if rt.method == http.MethodGet {
			m = http.MethodPost
		}
		if code, hdr, _ := do(m, rt.path); code != http.StatusMethodNotAllowed || hdr.Get("Allow") != rt.allow {
			t.Errorf("%s %s = %d with Allow %q, want 405 with Allow %q", m, rt.path, code, hdr.Get("Allow"), rt.allow)
		}
	}

	// HEAD /watch is refused too: served as a GET it would send a hedged
	// GET upstream for a body that is thrown away.
	if code, hdr, _ := do(http.MethodHead, "/watch?spec=tiny&db=tinydb"); code != http.StatusMethodNotAllowed || hdr.Get("Allow") != "GET" ||
		coord.Metrics().Watches != 0 || nodes[0].srv.Metrics().Watched != 0 {
		t.Errorf("HEAD /watch = %d with Allow %q, %d proxied; want 405 with Allow \"GET\", nothing sent upstream",
			code, hdr.Get("Allow"), coord.Metrics().Watches)
	}

	// Refusals count under rejected: a torn body, an oversized one, a bad
	// X-Ptx-Deadline and a malformed join.
	for _, bad := range []struct {
		path     string
		body     io.Reader
		deadline string
	}{
		{"/mutate", iotest.ErrReader(errors.New("torn")), ""},
		{"/publish", strings.NewReader(strings.Repeat("x", 1<<21)), ""},
		{"/publish", strings.NewReader(`{"spec":"tiny","db":"tinydb"}`), "soon"},
		{"/join", strings.NewReader(`{"id":`), ""},
	} {
		before := coord.Metrics().Rejected
		req := httptest.NewRequest(http.MethodPost, bad.path, bad.body)
		if bad.deadline != "" {
			req.Header.Set(serve.HeaderDeadline, bad.deadline)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code < 400 || rec.Code >= 500 || coord.Metrics().Rejected != before+1 {
			t.Errorf("POST %s (deadline %q) = %d, %d rejected; want a 4xx counted once", bad.path, bad.deadline, rec.Code, coord.Metrics().Rejected-before)
		}
	}

	if err := coord.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, rt := range routes {
		method := rt.method
		if method == "" {
			method = http.MethodGet
		}
		before := coord.Metrics().Rejected
		code, _, kind := do(method, rt.path)
		draining := code == http.StatusServiceUnavailable && kind == serve.KindDraining
		rejected := coord.Metrics().Rejected - before
		switch {
		case rt.gated && (!draining || rejected != 1):
			t.Errorf("%s %s while draining = %d %q, %d rejected; want 503 draining, 1 rejected", method, rt.path, code, kind, rejected)
		case !rt.gated && rt.path != "/readyz" && draining:
			t.Errorf("%s %s while draining = 503 draining; the route is not gated", method, rt.path)
		case rt.path == "/readyz" && !draining:
			t.Errorf("GET /readyz while draining = %d, want 503 draining", code)
		}
	}
}
