package main

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// A shared host's speed drifts: the same loop runs up to a third faster
// or slower from one second to the next, and a pass's throughput drifts
// with it. So a measured pass runs in slices of sliceLen. At the end of
// each slice every client parks after its current operation, two fixed
// calibration kernels run on every core for calSlot, and the next slice
// starts. The pass reports its throughput as measured and also divided
// by the host's speed on the kernels relative to a nominal host. Slices
// and slots are both fixed in length, so both rates are time-weighted
// means over the same phases of the host.
//
// One kernel is compute-bound (sort a copy of a small slice, look each
// element up in a small map) and one is memory-bound (chase a random
// cycle through a 4 MiB array); the host's speed is the geometric mean
// of the two, which tracks the workloads' throughput better than either.
// Neither allocates on the Go heap, so the workload's garbage does not
// change their cost and the calibration does not change heap_peak_mb.
const (
	sliceLen = 200 * time.Millisecond
	calSlot  = 20 * time.Millisecond

	calSize  = 4096    // elements sorted per compute unit
	calRing  = 1 << 20 // uint32 entries in the memory kernel's cycle
	calSteps = 2048    // steps per memory unit

	// Units per second per core of each kernel on a nominal host.
	calNominalCPU = 3000.0
	calNominalMem = 4000.0
)

// calState is one core's calibration input.
type calState struct {
	base, work []uint32
	table      map[uint32]uint32
	mapped     []byte   // the ring's memory, outside the Go heap
	ring       []uint32 // ring[i] is the next index of a single random cycle
	pos, sum   uint32
}

func newCalState() (*calState, error) {
	s := &calState{base: make([]uint32, calSize), work: make([]uint32, calSize), table: make(map[uint32]uint32, calSize)}
	x := uint32(2463534242)
	next := func() uint32 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x
	}
	for i := range s.base {
		s.base[i] = next()
		s.table[s.base[i]%(4*calSize)] = uint32(i)
	}
	mem, err := syscall.Mmap(-1, 0, 4*calRing, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	s.mapped = mem
	s.ring = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), calRing)
	// Sattolo's shuffle: a random permutation that is one cycle.
	for i := range s.ring {
		s.ring[i] = uint32(i)
	}
	for i := calRing - 1; i > 0; i-- {
		j := next() % uint32(i)
		s.ring[i], s.ring[j] = s.ring[j], s.ring[i]
	}
	return s, nil
}

func (s *calState) compute() {
	copy(s.work, s.base)
	slices.Sort(s.work)
	for _, v := range s.work {
		s.sum += s.table[v%(4*calSize)]
	}
}

func (s *calState) chase() {
	p := s.pos
	for i := 0; i < calSteps; i++ {
		p = s.ring[p]
	}
	s.pos = p
}

var calKernels = []struct {
	unit    func(*calState)
	nominal float64
}{
	{(*calState).compute, calNominalCPU},
	{(*calState).chase, calNominalMem},
}

// calibrator accumulates each kernel's work and wall time over the slots.
type calibrator struct {
	states []*calState
	units  [2]int64
	spent  [2]time.Duration
}

func newCalibrator() (*calibrator, error) {
	c := &calibrator{}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		s, err := newCalState()
		if err != nil {
			c.close()
			return nil, err
		}
		c.states = append(c.states, s)
	}
	return c, nil
}

func (c *calibrator) close() {
	for _, s := range c.states {
		syscall.Munmap(s.mapped)
	}
	c.states = nil
}

// slot runs each kernel on every core for its share of calSlot and
// returns the host's speed over the slot.
func (c *calibrator) slot() float64 {
	var units [2]int64
	var spent [2]time.Duration
	for k, kern := range calKernels {
		t0 := time.Now()
		end := t0.Add(calSlot / time.Duration(len(calKernels)))
		counts := make([]int64, len(c.states))
		var wg sync.WaitGroup
		for i, s := range c.states {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(end) {
					kern.unit(s)
					counts[i]++
				}
			}()
		}
		wg.Wait()
		spent[k] = time.Since(t0)
		for _, n := range counts {
			units[k] += n
		}
		c.units[k] += units[k]
		c.spent[k] += spent[k]
	}
	return c.relSpeed(units, spent)
}

// reset forgets the slots run so far.
func (c *calibrator) reset() {
	c.units, c.spent = [2]int64{}, [2]time.Duration{}
}

// total is the wall time of every slot so far.
func (c *calibrator) total() time.Duration {
	return c.spent[0] + c.spent[1]
}

// speed is the host's speed over the slots so far relative to a nominal
// host.
func (c *calibrator) speed() float64 {
	return c.relSpeed(c.units, c.spent)
}

// relSpeed is the geometric mean of the kernels' rates relative to their
// nominal rates.
func (c *calibrator) relSpeed(units [2]int64, spent [2]time.Duration) float64 {
	logSum := 0.0
	for k, kern := range calKernels {
		rate := float64(units[k]) / spent[k].Seconds() / float64(len(c.states))
		logSum += math.Log(rate / kern.nominal)
	}
	return math.Exp(logSum / float64(len(calKernels)))
}

// pacer runs a pass's clients in slices with a calibration slot between
// them. Each client calls step between operations and done when it has no
// work left.
type pacer struct {
	cal     *calibrator
	mu      sync.Mutex
	cond    *sync.Cond
	active  int // clients not done
	parked  int // clients waiting for the next slice
	slice   int // number of the current slice
	start   time.Time
	sliceAt time.Time
}

func newPacer(cal *calibrator, clients int) *pacer {
	p := &pacer{cal: cal, active: clients, start: time.Now()}
	p.cond = sync.NewCond(&p.mu)
	p.sliceAt = p.start
	return p
}

// measured is the pass's wall time outside calibration slots.
func (p *pacer) measured() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return time.Since(p.start) - p.cal.total()
}

// step returns at once inside a slice. At its end it parks the client
// until every active client has parked; the last one runs the calibration
// slot and starts the next slice.
func (p *pacer) step() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if time.Since(p.sliceAt) < sliceLen {
		return
	}
	p.parked++
	if p.parked < p.active {
		for s := p.slice; s == p.slice; {
			p.cond.Wait()
		}
		return
	}
	p.next()
}

// done retires a client. If every remaining client is parked, the slice
// ends.
func (p *pacer) done() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.active--
	if p.active > 0 && p.parked == p.active {
		p.next()
	}
}

func (p *pacer) next() {
	p.cal.slot()
	p.parked = 0
	p.slice++
	p.sliceAt = time.Now()
	p.cond.Broadcast()
}

// finish runs the last slice's calibration slot once every client is done
// and returns the pass's measured time.
func (p *pacer) finish() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	d := time.Since(p.start) - p.cal.total()
	p.cal.slot()
	return d
}
