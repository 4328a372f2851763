package cluster

import (
	"context"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"ptx/internal/breaker"
)

// probeLoop is the coordinator's health prober: every ProbeInterval
// (±probeJitter, seeded — a fleet of coordinators spreads out instead
// of thundering in phase) it GETs each due member's /readyz. A failure
// marks the member down (bumping the epoch so successors gain
// checkpoint authority) and schedules its next probe with exponential
// backoff capped at 8 intervals; a success resets the backoff and marks
// it up, which also re-warms it. Request failures mark nodes down
// faster than the prober can (see judge); the prober's job is
// RECOVERY — a restarted node is back in rotation within one interval.
func (c *Coordinator) probeLoop() {
	defer close(c.probeDone)
	rng := rand.New(rand.NewSource(c.cfg.ProbeSeed))
	timer := time.NewTimer(c.jittered(rng))
	defer timer.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-timer.C:
		}
		c.probeAll()
		timer.Reset(c.jittered(rng))
	}
}

// probeJitter spreads each probe tick by ± this fraction of the
// interval, so a fleet of coordinators never thunders in phase.
const probeJitter = 0.2

// jittered returns one probe-tick delay: interval ± probeJitter.
func (c *Coordinator) jittered(rng *rand.Rand) time.Duration {
	d := float64(c.cfg.ProbeInterval)
	d *= 1 + probeJitter*(2*rng.Float64()-1)
	return time.Duration(d)
}

// probeAll probes every member whose backoff window has elapsed, all
// concurrently, and applies the up/down transitions.
func (c *Coordinator) probeAll() {
	now := time.Now()
	c.mu.Lock()
	due := make([]MemberStatus, 0, len(c.members))
	for _, m := range c.members {
		if m.next.Before(now) || m.next.Equal(now) {
			due = append(due, MemberStatus{ID: m.id, URL: m.url, Up: m.up})
		}
	}
	c.mu.Unlock()

	var wg sync.WaitGroup
	for _, m := range due {
		wg.Add(1)
		go func(m MemberStatus) {
			defer wg.Done()
			// Breaker-aware cadence: a peer with an open breaker is
			// probed on the breaker's half-open schedule, not hammered
			// every interval — Allow consumes the single half-open probe
			// slot, so the prober and the forward path never double-probe
			// a recovering node.
			if st := c.breakers.State(m.ID); st != breaker.Closed {
				if !c.breakers.Allow(m.ID) {
					return
				}
			}
			if c.probeOne(m.URL) {
				c.breakers.Success(m.ID)
				c.markUp(m.ID) // no-op if already up
			} else {
				c.breakers.Failure(m.ID)
				c.probeFailed(m.ID)
			}
		}(m)
	}
	wg.Wait()
}

// probeOne reports whether url's /readyz answers 200 within the probe
// window: at least 250ms even for fast probe cadences (a busy but
// healthy node must get a fair chance to answer), capped at 2s so one
// hung node cannot stall the sweep.
func (c *Coordinator) probeOne(url string) bool {
	timeout := c.cfg.ProbeInterval
	if timeout < 250*time.Millisecond {
		timeout = 250 * time.Millisecond
	}
	if timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(c.baseCtx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// probeFailed records one failed probe. An up member is only evicted
// after FailThreshold CONSECUTIVE failures (re-probed at full cadence
// until then); once down, the re-probe backs off exponentially, capped
// at 8 intervals, so a long-dead node costs ever fewer probes.
func (c *Coordinator) probeFailed(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.members[id]
	if !ok {
		return
	}
	m.fails++
	if m.up && m.fails < c.cfg.FailThreshold {
		// Still trusted: keep probing at full rate, keep serving.
		m.next = time.Now().Add(c.cfg.ProbeInterval)
		return
	}
	wasUp := m.up
	m.up = false
	backoff := c.cfg.ProbeInterval
	for i := 1; i < m.fails && backoff < 8*c.cfg.ProbeInterval; i++ {
		backoff *= 2
	}
	if backoff > 8*c.cfg.ProbeInterval {
		backoff = 8 * c.cfg.ProbeInterval
	}
	m.next = time.Now().Add(backoff)
	if wasUp {
		c.epoch.Add(1)
	}
}
