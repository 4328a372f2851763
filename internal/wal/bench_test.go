package wal

import (
	"fmt"
	"testing"
	"time"

	"ptx/internal/relation"
)

// BenchmarkWALRecovery measures cold-start replay: how long Open takes
// to verify checksums and decode a log of N committed records — the
// restart-to-serving latency a durable node pays. It reports
// recovery-ms (go test -bench WALRecovery ./internal/wal).
func BenchmarkWALRecovery(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("records-%d", n), func(b *testing.B) {
			dir := b.TempDir()
			l, err := Open(dir, Options{NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				d := (&relation.Delta{}).Insert("course", fmt.Sprintf("C%d", i), "Bench", "CS")
				if err := l.Append(Record{DB: "registrar", Seq: uint64(i + 1), Delta: d}); err != nil {
					b.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}

			b.ResetTimer()
			var total time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				l, err := Open(dir, Options{})
				if err != nil {
					b.Fatal(err)
				}
				total += time.Since(start)
				if got := len(l.Records()); got != n {
					b.Fatalf("recovered %d records, want %d", got, n)
				}
				l.Close()
			}
			b.ReportMetric(float64(total.Microseconds())/1000/float64(b.N), "recovery-ms")
		})
	}
}
