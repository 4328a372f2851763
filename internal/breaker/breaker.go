// Package breaker implements per-peer circuit breakers for the
// cluster's inter-node calls. A breaker watches consecutive transport
// failures against one peer and, once a threshold trips, stops new
// calls from even dialing it: a partitioned or sick peer costs one
// deadline per detection, not one deadline per request.
//
// The state machine is the classic three-state one:
//
//	closed    — calls flow; consecutive failures are counted.
//	open      — calls are refused locally; after a cooldown (with
//	            seeded jitter, doubling per consecutive open up to a
//	            cap) the breaker admits ONE probe.
//	half-open — the probe is in flight; its success closes the
//	            breaker, its failure re-opens with a longer cooldown.
//
// Breakers are grouped in a Set keyed by peer id, which is what the
// coordinator's forward path, its health prober, and the replication
// push path share: any of them can trip the breaker, and all of them
// respect it.
package breaker

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// State is one circuit-breaker state.
type State int

const (
	Closed State = iota
	Open
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Config parameterizes a Set. The zero value of every field selects a
// production-sane default.
type Config struct {
	// Threshold is how many CONSECUTIVE failures open the breaker
	// (default 3). Any success resets the count.
	Threshold int
	// Cooldown is the base open→half-open delay (default 1s).
	Cooldown time.Duration
	// MaxCooldown caps the doubling backoff across consecutive opens
	// (default 8×Cooldown).
	MaxCooldown time.Duration
	// Jitter spreads each cooldown by ±fraction (default 0.2) so a
	// fleet of breakers never probes a recovering peer in phase; Seed
	// makes the schedule reproducible.
	Jitter float64
	Seed   int64
}

func (c Config) withDefaults() Config {
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	if c.MaxCooldown <= 0 {
		c.MaxCooldown = 8 * c.Cooldown
	}
	if c.Jitter <= 0 {
		c.Jitter = 0.2
	}
	return c
}

// entry is one peer's breaker.
type entry struct {
	state   State
	fails   int       // consecutive failures while closed
	opens   int       // consecutive opens (drives the cooldown backoff)
	until   time.Time // earliest half-open probe while open
	probing bool      // a half-open probe is in flight
}

// Set is a collection of breakers keyed by peer id. All methods are
// safe for concurrent use; unknown ids behave as closed breakers.
type Set struct {
	mu    sync.Mutex
	cfg   Config
	rng   *rand.Rand
	peers map[string]*entry
	opens int64 // total closed/half-open → open transitions
}

// NewSet builds a breaker set.
func NewSet(cfg Config) *Set {
	cfg = cfg.withDefaults()
	return &Set{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		peers: make(map[string]*entry),
	}
}

func (s *Set) peer(id string) *entry {
	e, ok := s.peers[id]
	if !ok {
		e = &entry{}
		s.peers[id] = e
	}
	return e
}

// Allow reports whether a call to the peer may proceed now. A closed
// breaker always allows. An open breaker refuses until its cooldown
// elapses, then transitions to half-open and admits exactly one probe;
// further calls are refused until that probe resolves via Success or
// Failure, or is handed back by an Observe without evidence.
func (s *Set) Allow(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.peer(id)
	switch e.state {
	case Closed:
		return true
	case Open:
		if time.Now().Before(e.until) {
			return false
		}
		e.state = HalfOpen
		e.probing = true
		return true
	default: // HalfOpen
		if e.probing {
			return false
		}
		e.probing = true
		return true
	}
}

// Success records a successful call: the breaker closes and all
// failure history is forgotten.
func (s *Set) Success(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.peer(id)
	e.state = Closed
	e.fails = 0
	e.opens = 0
	e.probing = false
	e.until = time.Time{}
}

// Failure records a failed call. While closed it counts toward the
// threshold; at the threshold — or on a failed half-open probe — the
// breaker (re-)opens with a jittered, doubling cooldown.
func (s *Set) Failure(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.peer(id)
	if e.state == Closed {
		e.fails++
		if e.fails < s.cfg.Threshold {
			return
		}
	}
	// Open (from threshold or a failed probe): back off and rearm.
	e.state = Open
	e.probing = false
	e.opens++
	s.opens++
	cd := s.cfg.Cooldown
	for i := 1; i < e.opens && cd < s.cfg.MaxCooldown; i++ {
		cd *= 2
	}
	if cd > s.cfg.MaxCooldown {
		cd = s.cfg.MaxCooldown
	}
	cd = time.Duration(float64(cd) * (1 + s.cfg.Jitter*(2*s.rng.Float64()-1)))
	e.until = time.Now().Add(cd)
}

// Observe records one call's outcome under the evidence rule every
// caller shares: a nil err is a Success; an err that arrived after ctx
// was done records nothing, because the caller's budget died, not the
// peer; any other err is a Failure.
//
// A call without evidence may still hold the half-open probe slot its
// Allow took. Observe hands that slot back (the breaker stays half-open
// with its history intact), or the breaker would refuse every later
// call with nothing left to resolve the probe.
func (s *Set) Observe(ctx context.Context, id string, err error) {
	switch {
	case err == nil:
		s.Success(id)
	case ctx.Err() == nil:
		s.Failure(id)
	default:
		s.mu.Lock()
		defer s.mu.Unlock()
		if e := s.peer(id); e.state == HalfOpen {
			e.probing = false
		}
	}
}

// State peeks at a peer's current state without transitioning it (the
// open→half-open move happens in Allow, never here).
func (s *Set) State(id string) State {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.peers[id]
	if !ok {
		return Closed
	}
	return e.state
}

// ProbeDue reports whether an open breaker's cooldown has elapsed —
// the half-open probe schedule the health prober follows instead of
// its full cadence.
func (s *Set) ProbeDue(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.peers[id]
	if !ok {
		return true
	}
	switch e.state {
	case Closed:
		return true
	case Open:
		return !time.Now().Before(e.until)
	default:
		return !e.probing
	}
}

// NextProbe returns when the peer's next half-open probe is allowed
// (zero for closed breakers).
func (s *Set) NextProbe(id string) time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.peers[id]
	if !ok {
		return time.Time{}
	}
	return e.until
}

// Opens reports the total number of open transitions across all peers
// — the "breakers actually fired" observable.
func (s *Set) Opens() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opens
}

// OpenPeers lists (sorted) the peers whose breaker is currently open
// or half-open.
func (s *Set) OpenPeers() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for id, e := range s.peers {
		if e.state != Closed {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}
