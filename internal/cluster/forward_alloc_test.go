package cluster

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ptx/internal/serve"
)

// TestForwardAllocs guards the bytes a doc-served publish of τ1 over
// registrar allocates end to end through a coordinator over one node,
// both in this process: the node answers from its stored document with
// that document's integrity sum, and the coordinator relays one copy of
// the body read through a pooled buffer. Measured with go1.24 on
// linux/amd64: 29,140 B per publish when the node re-hashed the body and
// the coordinator grew it with io.ReadAll, 26,190 B since. The bound
// sits between the two.
func TestForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	reg := serve.NewRegistry()
	if err := reg.LoadDir("../../examples/specs"); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	node := httptest.NewServer(srv.Handler())
	defer node.Close()
	coord := New(Config{ProbeInterval: -1})
	defer coord.Close()
	if err := coord.Join("n1", node.URL); err != nil {
		t.Fatal(err)
	}
	h := coord.Handler()
	var calls int64
	publish := func() {
		calls++
		req := httptest.NewRequest(http.MethodPost, "/publish", strings.NewReader(`{"spec":"tau1","db":"registrar"}`))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("publish: status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	publish()
	served := srv.Metrics().DocServed
	calls = 0
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			publish()
		}
	})
	if got := srv.Metrics().DocServed - served; got != calls {
		t.Fatalf("%d of %d publishes were doc-served", got, calls)
	}
	perOp := res.AllocedBytesPerOp()
	t.Logf("doc-served τ1 publish through the coordinator: %d B/op, %d allocs/op", perOp, res.AllocsPerOp())
	if perOp > 27_600 {
		t.Errorf("a doc-served publish through the coordinator allocates %d B, over 27,600", perOp)
	}
}
