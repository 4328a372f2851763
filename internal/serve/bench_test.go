package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"
)

// BenchmarkServeThroughput drives the full HTTP publish path (decode,
// validate, admit, dedup, run, stream) at a fixed client concurrency
// against the example specs, reporting requests/second and p99 latency.
// Run it with go test -bench ServeThroughput ./internal/serve; the
// end-to-end numbers the project tracks come from perfbench.
func BenchmarkServeThroughput(b *testing.B) {
	const concurrency = 8
	for _, spec := range []string{"tau1", "tau2v"} {
		b.Run(spec, func(b *testing.B) {
			reg := NewRegistry()
			if err := reg.LoadDir("../../examples/specs"); err != nil {
				b.Fatalf("loading example specs: %v", err)
			}
			s, err := New(Config{Registry: reg, Workers: concurrency, Queue: 4 * concurrency})
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			defer s.Close()
			client := ts.Client()
			client.Transport.(*http.Transport).MaxIdleConnsPerHost = concurrency
			body := []byte(fmt.Sprintf(`{"spec":%q,"db":"registrar"}`, spec))

			// Warm the pair cache and the memo so the benchmark measures
			// the steady-state serving path, not the first parse.
			resp, err := client.Post(ts.URL+"/publish", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("warmup status %d", resp.StatusCode)
			}

			var mu sync.Mutex
			latencies := make([]time.Duration, 0, b.N)
			work := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < concurrency; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range work {
						start := time.Now()
						resp, err := client.Post(ts.URL+"/publish", "application/json", bytes.NewReader(body))
						if err != nil {
							b.Errorf("post: %v", err)
							continue
						}
						var sink bytes.Buffer
						_, _ = sink.ReadFrom(resp.Body)
						resp.Body.Close()
						d := time.Since(start)
						if resp.StatusCode != http.StatusOK {
							b.Errorf("status %d: %s", resp.StatusCode, sink.Bytes())
							continue
						}
						mu.Lock()
						latencies = append(latencies, d)
						mu.Unlock()
					}
				}()
			}

			b.ResetTimer()
			wall := time.Now()
			for i := 0; i < b.N; i++ {
				work <- struct{}{}
			}
			close(work)
			wg.Wait()
			elapsed := time.Since(wall)
			b.StopTimer()

			if len(latencies) > 0 {
				sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
				p99 := latencies[len(latencies)*99/100]
				b.ReportMetric(float64(len(latencies))/elapsed.Seconds(), "req/s")
				b.ReportMetric(float64(p99.Microseconds())/1000, "p99-ms")
			}
		})
	}
}
