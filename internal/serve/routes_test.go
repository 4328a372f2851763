package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestServeRouteTable walks every route of Handler. A wrong method gets
// 405 with the route's Allow header; /healthz and /readyz answer any
// method; while the server drains, each gated route answers 503
// draining and counts it under rejected, and no other route is gated;
// HEAD /watch gets 405 with Allow: GET; and every response, a 405
// included, names the node.
func TestServeRouteTable(t *testing.T) {
	routes := []struct {
		path, method, allow string // method "" answers any
		gated               bool
	}{
		{"/publish", http.MethodPost, "POST", true},
		{"/mutate", http.MethodPost, "POST", true},
		{"/replicate", http.MethodPost, "POST", true},
		{"/sync", http.MethodPost, "POST", true},
		{"/watch", http.MethodGet, "GET, HEAD", true},
		{"/deltalog", http.MethodGet, "GET, HEAD", false},
		{"/warm", http.MethodPost, "POST", false},
		{"/healthz", "", "", false},
		{"/readyz", "", "", false},
	}
	s, _ := newTestServer(t, Config{NodeID: "n1"})
	h := s.Handler()
	do := func(method, path string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader("{}")))
		if got := rec.Header().Get("X-Ptserve-Node"); got != "n1" {
			t.Errorf("%s %s: X-Ptserve-Node %q, want n1", method, path, got)
		}
		return rec
	}

	for _, rt := range routes {
		if rt.method == "" {
			for _, m := range []string{http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodDelete} {
				if rec := do(m, rt.path); rec.Code != http.StatusOK {
					t.Errorf("%s %s = %d, want 200", m, rt.path, rec.Code)
				}
			}
			continue
		}
		m := http.MethodGet
		if rt.method == http.MethodGet {
			m = http.MethodPost
		}
		rec := do(m, rt.path)
		if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != rt.allow {
			t.Errorf("%s %s = %d with Allow %q, want 405 with Allow %q", m, rt.path, rec.Code, rec.Header().Get("Allow"), rt.allow)
		}
	}

	// HEAD /watch is refused too: served as a GET it would build the
	// pair's live view and count a watch for a body that is thrown away.
	rec := do(http.MethodHead, "/watch?spec=tiny&db=tinydb")
	views := 0
	s.views.Range(func(any, any) bool { views++; return true })
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "GET" || s.Metrics().Watched != 0 || views != 0 {
		t.Errorf("HEAD /watch = %d with Allow %q, %d watched, %d views; want 405 with Allow \"GET\", none watched or built",
			rec.Code, rec.Header().Get("Allow"), s.Metrics().Watched, views)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, rt := range routes {
		method := rt.method
		if method == "" {
			method = http.MethodGet
		}
		before := s.Metrics().Rejected
		rec := do(method, rt.path)
		var eb errorBody
		_ = json.Unmarshal(rec.Body.Bytes(), &eb)
		draining := rec.Code == http.StatusServiceUnavailable && eb.Error.Kind == KindDraining
		rejected := s.Metrics().Rejected - before
		switch {
		case rt.gated && (!draining || rejected != 1):
			t.Errorf("%s %s while draining = %d %s, %d rejected; want 503 draining, 1 rejected", method, rt.path, rec.Code, rec.Body.Bytes(), rejected)
		case !rt.gated && rt.path != "/readyz" && draining:
			t.Errorf("%s %s while draining = 503 draining; the route is not gated", method, rt.path)
		case rt.path == "/readyz" && !draining:
			t.Errorf("GET /readyz while draining = %d, want 503 draining", rec.Code)
		}
	}
}
