package main

import (
	"sync"
	"testing"
	"time"
)

// Two clients of unequal speed, one finishing early: every slice ends in
// a calibration slot, nobody deadlocks at the barrier, and measured time
// leaves the slots out.
func TestPacerSlicesAndCalibrates(t *testing.T) {
	cal, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer cal.close()
	p := newPacer(cal, 2)
	start := time.Now()
	var wg sync.WaitGroup
	for c, work := range []time.Duration{time.Millisecond, 3 * time.Millisecond} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer p.done()
			until := time.Duration(c+1) * 3 * sliceLen
			for p.measured() < until {
				p.step()
				time.Sleep(work)
			}
		}()
	}
	wg.Wait()
	measured := p.finish()
	wall := time.Since(start)
	if p.slice < 4 {
		t.Errorf("%d slices ended, want at least 4", p.slice)
	}
	if got := cal.total(); measured+got > wall+time.Millisecond || got < time.Duration(p.slice+1)*calSlot {
		t.Errorf("measured %v + slots %v against wall %v over %d slots", measured, got, wall, p.slice+1)
	}
	if s := cal.speed(); !(s > 0) {
		t.Errorf("host speed %v", s)
	}
}
