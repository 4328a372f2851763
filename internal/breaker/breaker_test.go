package breaker

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestBreakerOpensAtThreshold(t *testing.T) {
	s := NewSet(Config{Threshold: 3, Cooldown: 50 * time.Millisecond, Seed: 1})
	if !s.Allow("a") {
		t.Fatal("fresh breaker must allow")
	}
	s.Failure("a")
	s.Failure("a")
	if st := s.State("a"); st != Closed {
		t.Fatalf("below threshold: want closed, got %v", st)
	}
	if !s.Allow("a") {
		t.Fatal("closed breaker must allow")
	}
	s.Failure("a")
	if st := s.State("a"); st != Open {
		t.Fatalf("at threshold: want open, got %v", st)
	}
	if s.Allow("a") {
		t.Fatal("open breaker must refuse before cooldown")
	}
	if s.Opens() != 1 {
		t.Fatalf("opens: want 1, got %d", s.Opens())
	}
	if got := s.OpenPeers(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("OpenPeers: got %v", got)
	}
}

func TestBreakerSuccessResetsCount(t *testing.T) {
	s := NewSet(Config{Threshold: 2, Cooldown: time.Hour, Seed: 1})
	s.Failure("a")
	s.Success("a")
	s.Failure("a")
	if st := s.State("a"); st != Closed {
		t.Fatalf("success must reset the consecutive-failure count, got %v", st)
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	s := NewSet(Config{Threshold: 1, Cooldown: 10 * time.Millisecond, Jitter: 0.01, Seed: 1})
	s.Failure("a")
	if s.Allow("a") {
		t.Fatal("open breaker must refuse immediately after tripping")
	}
	deadline := time.Now().Add(time.Second)
	for !s.ProbeDue("a") {
		if time.Now().After(deadline) {
			t.Fatal("cooldown never elapsed")
		}
		time.Sleep(time.Millisecond)
	}
	if !s.Allow("a") {
		t.Fatal("cooldown elapsed: the probe slot must be granted")
	}
	if st := s.State("a"); st != HalfOpen {
		t.Fatalf("want half-open during probe, got %v", st)
	}
	if s.Allow("a") {
		t.Fatal("half-open admits exactly one probe")
	}
	s.Success("a")
	if st := s.State("a"); st != Closed {
		t.Fatalf("probe success must close, got %v", st)
	}
	if !s.Allow("a") {
		t.Fatal("closed after recovery must allow")
	}
}

func TestBreakerFailedProbeBacksOff(t *testing.T) {
	s := NewSet(Config{Threshold: 1, Cooldown: 10 * time.Millisecond, MaxCooldown: 80 * time.Millisecond, Jitter: 0.01, Seed: 7})
	s.Failure("a")
	first := time.Until(s.NextProbe("a"))
	for !s.ProbeDue("a") {
		time.Sleep(time.Millisecond)
	}
	if !s.Allow("a") {
		t.Fatal("probe slot expected")
	}
	s.Failure("a") // failed probe: re-open with doubled cooldown
	if st := s.State("a"); st != Open {
		t.Fatalf("failed probe must re-open, got %v", st)
	}
	second := time.Until(s.NextProbe("a"))
	if second <= first {
		t.Fatalf("cooldown must back off: first %v, second %v", first, second)
	}
	if s.Opens() != 2 {
		t.Fatalf("opens: want 2, got %d", s.Opens())
	}
}

func TestBreakerConcurrentHalfOpenAdmitsOne(t *testing.T) {
	s := NewSet(Config{Threshold: 1, Cooldown: time.Nanosecond, Jitter: 0.01, Seed: 3})
	s.Failure("a")
	time.Sleep(5 * time.Millisecond) // cooldown elapses
	var admitted int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s.Allow("a") {
				mu.Lock()
				admitted++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if admitted != 1 {
		t.Fatalf("half-open must admit exactly one concurrent probe, admitted %d", admitted)
	}
}

func TestBreakerIndependentPeers(t *testing.T) {
	s := NewSet(Config{Threshold: 1, Cooldown: time.Hour, Seed: 1})
	s.Failure("a")
	if !s.Allow("b") {
		t.Fatal("peer b's breaker must be independent of a's")
	}
	if st := s.State("b"); st != Closed {
		t.Fatalf("b: want closed, got %v", st)
	}
}

// TestObserve pins the evidence rule: success closes, a failure under a
// live context counts, and a failure after the context died (the
// caller's budget ran out) counts for nothing but hands back a held
// half-open probe slot.
func TestObserve(t *testing.T) {
	s := NewSet(Config{Threshold: 1, Cooldown: time.Hour, Seed: 1})
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	boom := errors.New("boom")

	s.Observe(dead, "a", boom)
	if st := s.State("a"); st != Closed || s.Opens() != 0 {
		t.Fatalf("failure after the budget died: state %v, opens %d; want closed, 0", st, s.Opens())
	}
	s.Observe(context.Background(), "a", boom)
	if st := s.State("a"); st != Open {
		t.Fatalf("failure under a live context: state %v, want open", st)
	}
	s.Observe(dead, "a", nil)
	if st := s.State("a"); st != Closed {
		t.Fatalf("success: state %v, want closed", st)
	}

	// A half-open probe cut off by its caller's budget hands the probe
	// slot back: the breaker stays half-open, and the next call may probe.
	q := NewSet(Config{Threshold: 1, Cooldown: time.Millisecond, Seed: 1})
	q.Failure("a")
	time.Sleep(5 * time.Millisecond)
	if !q.Allow("a") {
		t.Fatal("cooldown elapsed but the probe was refused")
	}
	q.Observe(dead, "a", boom)
	if st := q.State("a"); st != HalfOpen || q.Opens() != 1 {
		t.Fatalf("probe cut by the budget: state %v, opens %d; want half-open, 1", st, q.Opens())
	}
	if !q.Allow("a") {
		t.Fatal("probe slot not handed back after a budget death")
	}
	if q.Allow("a") {
		t.Fatal("second concurrent probe admitted")
	}
}
