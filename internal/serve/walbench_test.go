package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"ptx/internal/wal"
)

// BenchmarkMutateDurability prices the durability guarantee on the full
// HTTP mutate path: fsync-per-append (the production contract), NoSync
// (survives process death, not power loss), and no WAL at all (the
// pre-durability baseline). It reports mut/s and p99-ms for each mode
// (go test -bench MutateDurability ./internal/serve); the fsync column
// is the cost of "no acknowledged delta is ever lost".
func BenchmarkMutateDurability(b *testing.B) {
	for _, mode := range []string{"fsync", "nosync", "nowal"} {
		b.Run(mode, func(b *testing.B) {
			reg := NewRegistry()
			if err := reg.LoadDir("../../examples/specs"); err != nil {
				b.Fatalf("loading example specs: %v", err)
			}
			if mode != "nowal" {
				l, err := wal.Open(b.TempDir(), wal.Options{NoSync: mode == "nosync"})
				if err != nil {
					b.Fatal(err)
				}
				defer l.Close()
				reg.AttachWAL(l)
			}
			s, err := New(Config{Registry: reg, Workers: 4, Queue: 16})
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			defer s.Close()
			client := ts.Client()

			latencies := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			wall := time.Now()
			for i := 0; i < b.N; i++ {
				body := fmt.Sprintf(
					`{"spec":"tau1","db":"registrar","ops":[{"op":"insert","rel":"course","tuple":["B%d","Bench","CS"]}]}`, i)
				start := time.Now()
				resp, err := client.Post(ts.URL+"/mutate", "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					b.Fatal(err)
				}
				var sink bytes.Buffer
				_, _ = sink.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("mutate status %d: %s", resp.StatusCode, sink.Bytes())
				}
				latencies = append(latencies, time.Since(start))
			}
			elapsed := time.Since(wall)
			b.StopTimer()

			sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
			p99 := latencies[len(latencies)*99/100]
			b.ReportMetric(float64(len(latencies))/elapsed.Seconds(), "mut/s")
			b.ReportMetric(float64(p99.Microseconds())/1000, "p99-ms")
		})
	}
}
