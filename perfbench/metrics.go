package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// recorder collects one measured pass: latency samples per operation
// class and kind, attempts, failures and output volume. Safe for the
// benchmark's client goroutines.
type recorder struct {
	mu        sync.Mutex
	samples   map[string]map[string][]float64 // class → kind → ms
	attempted int
	failed    int
	firstErr  string
	publishes int   // completed publishes (every class that publishes a document)
	nodes     int64 // logical output nodes of completed publishes
	queries   int64 // rule queries reported by completed publishes
	start     time.Time
	elapsed   time.Duration
}

func newRecorder() *recorder {
	return &recorder{samples: map[string]map[string][]float64{}}
}

// Operation classes. A class's latency quantiles are reported per kind
// (spec/db pair or input) and combined by geometric mean, so a mix of
// cheap and expensive kinds never puts the median in the gap between
// them.
const (
	classPublish  = "publish"  // warm publishes (library: one run+write)
	classRaw      = "raw"      // first publish after an acked mutate
	classMutate   = "mutate"   // POST /mutate to ack
	classRelation = "relation" // one OutputRelation pass
)

func (r *recorder) ok(class, kind string, d time.Duration, nodes, queries int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	m := r.samples[class]
	if m == nil {
		m = map[string][]float64{}
		r.samples[class] = m
	}
	m[kind] = append(m[kind], float64(d)/float64(time.Millisecond))
	if class == classPublish || class == classRaw {
		r.publishes++
		r.nodes += int64(nodes)
		r.queries += int64(queries)
	}
}

func (r *recorder) fail(class, kind string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	if r.firstErr == "" {
		r.firstErr = fmt.Sprintf("%s %s: %v", class, kind, err)
	}
}

// kinds lists a class's kinds, sorted.
func (r *recorder) kinds(class string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ks []string
	for k := range r.samples[class] {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// classQuantiles returns the geometric mean over kinds of each kind's
// q-quantile, and the sample count.
func (r *recorder) classQuantiles(class string, q float64) (float64, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	kinds := r.samples[class]
	if len(kinds) == 0 {
		return math.NaN(), 0
	}
	logSum, n := 0.0, 0
	for _, xs := range kinds {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		v := quantile(s, q)
		if q == 0.5 {
			v = median(s)
		}
		logSum += math.Log(v)
		n += len(xs)
	}
	return math.Exp(logSum / float64(len(kinds))), n
}

// heapSampler tracks the memory the Go runtime holds from the OS during
// a pass: every mapped class minus the heap pages it has released, the
// process's footprint as the OS sees it. It keeps the peak of each
// heapWindow of the pass and reports the median of those peaks, so one
// GC cycle that ends late does not set the figure.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // MiB, one per window
}

const heapWindow = time.Second

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	var peak uint64
	read := func() {
		metrics.Read(sample)
		peak = max(peak, sample[0].Value.Uint64()-sample[1].Value.Uint64())
	}
	closeWindow := func() {
		h.peaks = append(h.peaks, float64(peak)/(1<<20))
		peak = 0
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		start := time.Now()
		for {
			select {
			case <-h.stop:
				read()
				closeWindow()
				return
			case now := <-t.C:
				read()
				if now.Sub(start) >= heapWindow {
					closeWindow()
					start = now
				}
			}
		}
	}()
	return h
}

// finish stops sampling and returns the median window peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return median(h.peaks)
}

// runtimeSnap is the Go runtime state bracketing a pass.
type runtimeSnap struct {
	totalAlloc  uint64
	gcCPU, allC float64
}

func snapRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeSnap{totalAlloc: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), allC: s[1].Value.Float64()}
}
