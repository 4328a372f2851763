package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ptx/internal/serve"
)

// TestCoordinatorRouteTable walks every route of Handler. A wrong method
// gets 405 with the route's Allow header; /healthz and /readyz answer any
// method; and while the coordinator drains, each gated route answers
// 503 draining, and no other route is gated.
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
	coord, _, _ := newTestCluster(t, 1, Config{})
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

	if err := coord.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, rt := range routes {
		method := rt.method
		if method == "" {
			method = http.MethodGet
		}
		code, _, kind := do(method, rt.path)
		draining := code == http.StatusServiceUnavailable && kind == serve.KindDraining
		switch {
		case rt.gated && !draining:
			t.Errorf("%s %s while draining = %d %q, want 503 draining", method, rt.path, code, kind)
		case !rt.gated && rt.path != "/readyz" && draining:
			t.Errorf("%s %s while draining = 503 draining; the route is not gated", method, rt.path)
		case rt.path == "/readyz" && !draining:
			t.Errorf("GET /readyz while draining = %d, want 503 draining", code)
		}
	}
}
