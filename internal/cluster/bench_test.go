package cluster

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

// benchCluster stands up n storeless workers plus a coordinator with
// probing disabled: the benchmark measures the routed serving path, not
// checkpoint I/O or probe scheduling.
func benchCluster(b *testing.B, n int) (*Coordinator, *httptest.Server, []*testNode) {
	b.Helper()
	nodes := make([]*testNode, n)
	for i := range nodes {
		nodes[i] = newTestNode(b, fmt.Sprintf("bench-%d", i+1), nil, nil)
	}
	coord := New(Config{ProbeInterval: -1})
	b.Cleanup(coord.Close)
	for _, nd := range nodes {
		if err := coord.Join(nd.id, nd.url()); err != nil {
			b.Fatalf("join %s: %v", nd.id, err)
		}
	}
	cts := httptest.NewServer(coord.Handler())
	b.Cleanup(cts.Close)
	return coord, cts, nodes
}

// BenchmarkClusterThroughput drives the coordinator-routed publish path
// at fixed client concurrency for N=1 vs N=3 workers, reporting req/s
// and p99 latency. Every request body is distinct (a rotating
// timeout_ms) so the coordinator's dedup never collapses the load —
// this measures routing, not flight sharing. Run it with go test -bench
// ClusterThroughput ./internal/cluster; perfbench's cluster workload is
// the tracked end-to-end number.
func BenchmarkClusterThroughput(b *testing.B) {
	const concurrency = 8
	for _, n := range []int{1, 3} {
		b.Run(fmt.Sprintf("nodes-%d", n), func(b *testing.B) {
			_, cts, _ := benchCluster(b, n)
			client := cts.Client()
			client.Transport.(*http.Transport).MaxIdleConnsPerHost = concurrency
			bodyFor := func(i int) []byte {
				// 5000+i%64: distinct wire bytes, identical semantics.
				return []byte(fmt.Sprintf(`{"spec":"tiny","db":"tinydb","limits":{"timeout_ms":%d}}`, 5000+i%64))
			}

			// Warm every node's pair cache so the benchmark measures the
			// steady-state routed path, not the first parse.
			resp, err := client.Post(cts.URL+"/publish", "application/json", bytes.NewReader(bodyFor(0)))
			if err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("warmup status %d", resp.StatusCode)
			}

			var mu sync.Mutex
			latencies := make([]time.Duration, 0, b.N)
			work := make(chan int)
			var wg sync.WaitGroup
			for i := 0; i < concurrency; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range work {
						start := time.Now()
						resp, err := client.Post(cts.URL+"/publish", "application/json", bytes.NewReader(bodyFor(i)))
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
				work <- i
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

// BenchmarkClusterRecovery measures time-to-first-byte after a node
// kill: each iteration stands up a fresh 2-node cluster, publishes once
// (warm), kills whichever node served the request, and times the next
// publish — the dial failure, the mark-down, the failover hop, and the
// successor's serve, end to end. Reported as recovery-ms.
func BenchmarkClusterRecovery(b *testing.B) {
	b.ReportAllocs()
	var total time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		coord, cts, nodes := benchCluster(b, 2)
		body := []byte(`{"spec":"tiny","db":"tinydb"}`)
		resp, err := http.Post(cts.URL+"/publish", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("warm status %d", resp.StatusCode)
		}
		served := resp.Header.Get("X-Ptserve-Node")
		for _, n := range nodes {
			if n.id == served {
				n.ts.Close()
			}
		}
		b.StartTimer()
		start := time.Now()
		resp, err = http.Post(cts.URL+"/publish", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var sink bytes.Buffer
		_, _ = sink.ReadFrom(resp.Body)
		resp.Body.Close()
		total += time.Since(start)
		b.StopTimer()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("recovery status %d: %s", resp.StatusCode, sink.Bytes())
		}
		// Eager teardown: b.Cleanup only runs at benchmark end, which
		// would leave b.N clusters' listeners alive at once. The cleanups
		// then double-close, which is safe.
		cts.Close()
		coord.Close()
		for _, n := range nodes {
			n.ts.Close()
			n.srv.Close()
		}
	}
	if b.N > 0 {
		b.ReportMetric(float64(total.Microseconds())/float64(b.N)/1000, "recovery-ms")
	}
}
