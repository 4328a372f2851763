package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	neturl "net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ptx/internal/breaker"
	"ptx/internal/runctl"
	"ptx/internal/serve"
)

// Config parameterizes a Coordinator. The zero value of every field
// selects a production-sane default.
type Config struct {
	// VNodes is the number of ring points per member (default 64).
	VNodes int
	// Replicas caps how many preference-list members one request may
	// try before giving up (default 0 = every member).
	Replicas int

	// ProbeInterval is the health-probe cadence (default 500ms; negative
	// disables probing — forward-failure mark-down still works).
	ProbeInterval time.Duration
	// ProbeSeed seeds the probe-tick jitter (±probeJitter), making the
	// schedule reproducible.
	ProbeSeed int64

	// FailThreshold is how many CONSECUTIVE probe failures it takes to
	// mark an up member down (default 3). One slow probe under load must
	// not evict a healthy node; forward-path transport errors still mark
	// down immediately — a failed real request is stronger evidence than
	// a missed probe.
	FailThreshold int

	// MaxBodyBytes caps proxied request bodies (default 1 MiB).
	MaxBodyBytes int64

	// Client issues the forwarded requests and probes. The default has
	// NO flat timeout: every forwarded request runs under a per-request
	// context derived from its propagated deadline budget instead (a
	// flat client timeout both stalled short-deadline requests for the
	// full flat window and killed legitimately long watch streams).
	Client *http.Client

	// ForwardBudget is the time budget for a request that brings no
	// budget of its own — no limits.timeout_ms in the body and no
	// upstream X-Ptx-Deadline header (default 30s).
	ForwardBudget time.Duration
	// DeadlineGrace is the slack the coordinator grants itself beyond
	// the budget it propagates downstream (default 250ms): the worker
	// gets the budget, the coordinator waits budget+grace, so a worker
	// that answers typed at the wire still gets its answer relayed.
	DeadlineGrace time.Duration

	// HedgeDelay is how long an idempotent read (publish, watch
	// connect) waits on its primary before firing one hedged attempt at
	// the next preference-list member — first success wins, the loser
	// is canceled. 0 = auto (a quarter of the remaining budget, clamped
	// to [20ms, 2s]); negative disables hedging. Mutations are NEVER
	// hedged: a hedge duplicates work, and duplicated mutations would
	// race for sequence numbers on two nodes at once.
	HedgeDelay time.Duration

	// SyncTimeout bounds each join/catch-up control call — /sync,
	// /deltalog, /warm (default 5s). These run under the membership
	// write barrier, so without a bound a partitioned peer could stall
	// every mutation in the cluster.
	SyncTimeout time.Duration

	// Breaker parameterizes the per-member circuit breakers shared by
	// the forward path, the health prober and the mutation route. The
	// zero value picks defaults, with Cooldown tied to the probe
	// cadence (4×ProbeInterval, or 2s when probing is disabled).
	Breaker breaker.Config
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.ForwardBudget <= 0 {
		c.ForwardBudget = 30 * time.Second
	}
	if c.DeadlineGrace <= 0 {
		c.DeadlineGrace = 250 * time.Millisecond
	}
	if c.SyncTimeout <= 0 {
		c.SyncTimeout = 5 * time.Second
	}
	if c.Breaker.Cooldown == 0 {
		if c.ProbeInterval > 0 {
			c.Breaker.Cooldown = 4 * c.ProbeInterval
		} else {
			c.Breaker.Cooldown = 2 * time.Second
		}
	}
	if c.Breaker.Seed == 0 {
		c.Breaker.Seed = c.ProbeSeed
	}
	return c
}

// member is one worker node as the coordinator sees it.
type member struct {
	id, url string
	up      bool
	fails   int       // consecutive failed probes
	next    time.Time // earliest next probe (backoff for down nodes)
}

// MemberStatus is the wire form of a member in /healthz.
type MemberStatus struct {
	ID  string `json:"id"`
	URL string `json:"url"`
	Up  bool   `json:"up"`
	// Breaker is the member's circuit-breaker state ("closed", "open",
	// "half-open"); filled in Metrics snapshots only.
	Breaker string `json:"breaker,omitempty"`
}

// Metrics is a point-in-time snapshot of the coordinator's counters.
type Metrics struct {
	Epoch     uint64         `json:"epoch"`
	Members   []MemberStatus `json:"members"`
	Routed    int64          `json:"routed"`
	Failovers int64          `json:"failovers"` // attempts moved to a ring successor
	Deduped   int64          `json:"deduped"`   // followers served from a shared flight
	NoReady   int64          `json:"no_ready"`  // requests refused with no node up
	Warms     int64          `json:"warms"`     // warm-hint batches sent
	Mutations int64          `json:"mutations"` // mutations routed to a pair's owner
	Watches   int64          `json:"watches"`   // watch requests proxied
	Rejected  int64          `json:"rejected"`  // drains, malformed bodies, bad deadlines and joins refused

	Hedges       int64    `json:"hedges"`                 // hedged second attempts fired
	HedgeWins    int64    `json:"hedge_wins"`             // requests won by the hedged attempt
	BreakerOpens int64    `json:"breaker_opens"`          // closed→open breaker transitions
	BreakerOpen  []string `json:"breaker_open,omitempty"` // members currently open/half-open
}

// ErrNoReady is returned (as a transient, hence retryable, rejection)
// when every candidate node for a request is down.
var ErrNoReady = runctl.Transient(errors.New("cluster: no ready nodes"))

// Coordinator routes publish requests across worker nodes. Create with
// New, register nodes with Join (or let them self-register via /join),
// mount Handler, and Drain on shutdown.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	ring    *Ring
	members map[string]*member
	pairs   map[string][2]string // seen (spec, db) pairs, for warm hints
	mutDBs  map[string]bool      // databases that have taken mutations
	dbSeqs  map[string]uint64    // per-db ACKED sequence high-water marks
	flights map[string]*coordFlight

	// writeMu is the membership write barrier: mutations route under the
	// read side, joins and up-transitions take the write side while the
	// (re)joining node catches up on every mutated database's replicated
	// log. No mutation can commit concurrently with a catch-up, so a
	// node is only ever routable as a mutation owner when its log is a
	// contiguous prefix of the cluster's — the invariant that keeps
	// sequence numbers collision-free across failovers.
	writeMu sync.RWMutex

	// epoch is the cluster ownership epoch: bumped on every membership
	// or health transition, stamped on every routed request, carried by
	// every checkpoint write. A node that lost a run learns it through
	// the store fence, not through a message it might never receive.
	epoch atomic.Uint64

	baseCtx    context.Context
	baseCancel context.CancelFunc
	draining   atomic.Bool
	probeDone  chan struct{}
	warmWG     sync.WaitGroup

	// breakers holds one circuit breaker per member, shared by the
	// publish forward path, the mutation route, the watch proxy and the
	// health prober: every request path contributes evidence through
	// judge, every path honors the verdict (except mutations, which must
	// reach their one owner and therefore only FEED the breaker, never
	// skip on it).
	breakers *breaker.Set

	routed    atomic.Int64
	failovers atomic.Int64
	deduped   atomic.Int64
	noReady   atomic.Int64
	warms     atomic.Int64
	mutations atomic.Int64
	watches   atomic.Int64
	rejected  atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
}

// New builds a coordinator and starts its health prober (unless
// probing is disabled).
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:        cfg,
		ring:       NewRing(cfg.VNodes),
		members:    make(map[string]*member),
		pairs:      make(map[string][2]string),
		mutDBs:     make(map[string]bool),
		dbSeqs:     make(map[string]uint64),
		flights:    make(map[string]*coordFlight),
		baseCtx:    ctx,
		baseCancel: cancel,
		probeDone:  make(chan struct{}),
		breakers:   breaker.NewSet(cfg.Breaker),
	}
	if cfg.ProbeInterval > 0 {
		go c.probeLoop()
	} else {
		close(c.probeDone)
	}
	return c
}

// Join registers (or re-registers) a worker node and probes it once
// synchronously, so a node that joins ready serves the very next
// request. A reachable node is caught up on every mutated database's
// replicated log under the write barrier BEFORE it turns routable, and
// only turns routable if the catch-up actually CONVERGED — its log must
// reach the acked high-water mark of every mutated database, or it
// stays down for the prober to retry (consistency over availability: a
// stalled mutation beats a lost one). Either way the epoch is bumped:
// membership changed.
func (c *Coordinator) Join(id, url string) error {
	if id == "" || url == "" {
		return serve.Validationf("join", "missing id or url")
	}
	up := c.probeOne(url)
	c.mu.Lock()
	m, known := c.members[id]
	if !known {
		m = &member{id: id, url: url}
		c.members[id] = m
		c.ring.Add(id)
	}
	m.url = url
	m.up = false
	m.fails = 0
	m.next = time.Time{}
	c.mu.Unlock()
	// An explicit (re)join is an operator-grade signal: reset whatever
	// breaker history the previous incarnation accumulated.
	c.breakers.Success(id)
	if up {
		c.writeMu.Lock()
		up = c.syncMember(id, url)
		if up {
			c.mu.Lock()
			m.up = true
			c.mu.Unlock()
		}
		c.writeMu.Unlock()
	}
	c.epoch.Add(1)
	if up {
		c.sendWarmHints(id, url)
	}
	return nil
}

// syncMember runs the join-time catch-up: for every database that has
// taken mutations, the (re)joining node syncs bidirectionally (POST
// node/sync) with EVERY up peer — the first peer in ring order may
// itself be behind, so one pull is not convergence. The caller holds
// writeMu, so no mutation commits while logs converge. It returns
// whether the node's log reached every database's acked high-water
// mark; a false return means some acked record is not yet on this node
// (peers holding it unreachable, or the node's own WAL faulting) and
// the node must NOT take ownership yet.
func (c *Coordinator) syncMember(id, url string) bool {
	c.mu.Lock()
	want := make(map[string]uint64, len(c.mutDBs))
	for db := range c.mutDBs {
		want[db] = c.dbSeqs[db]
	}
	c.mu.Unlock()
	converged := true
	for db, hw := range want {
		for _, m := range c.mutatePreference(db) {
			if m.ID == id {
				continue
			}
			c.postSync(url, db, m.URL)
		}
		if c.memberSeq(url, db) < hw {
			converged = false
		}
	}
	return converged
}

// postSync asks the node at url to run one bidirectional catch-up round
// against peer for db. Best-effort: a failed round leaves convergence
// to the remaining peers and the final high-water check.
func (c *Coordinator) postSync(url, db, peer string) {
	payload, err := json.Marshal(struct {
		DB   string `json:"db"`
		Peer string `json:"peer"`
	}{db, peer})
	if err != nil {
		return
	}
	// Bounded: this runs under the membership write barrier, and an
	// unbounded call to a partitioned peer would stall every mutation.
	ctx, cancel := context.WithTimeout(c.baseCtx, c.cfg.SyncTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/sync", bytes.NewReader(payload))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// memberSeq reads a node's committed sequence mark for db (0 on any
// failure — an unreadable node is treated as maximally behind).
func (c *Coordinator) memberSeq(nodeURL, db string) uint64 {
	ctx, cancel := context.WithTimeout(c.baseCtx, c.cfg.SyncTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		nodeURL+"/deltalog?db="+neturl.QueryEscape(db), nil)
	if err != nil {
		return 0
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var dl struct {
		Seq uint64 `json:"seq"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&dl) != nil {
		return 0
	}
	return dl.Seq
}

// recordAck advances a database's acked sequence high-water mark — the
// convergence bar a rejoining node must clear before it can own
// mutations again.
func (c *Coordinator) recordAck(db string, seq uint64) {
	c.mu.Lock()
	if seq > c.dbSeqs[db] {
		c.dbSeqs[db] = seq
	}
	c.mu.Unlock()
}

// mutatePreference snapshots the up members of a database's mutation
// preference list. Mutations route by DATABASE alone — not (spec, db)
// like publishes — so exactly one node assigns sequence numbers for a
// database no matter how many specs publish it.
func (c *Coordinator) mutatePreference(db string) []MemberStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	if db != "" && len(c.mutDBs) < 4096 {
		c.mutDBs[db] = true
	}
	ids := c.ring.Prefer("mutate\x00"+db, len(c.members))
	out := make([]MemberStatus, 0, len(ids))
	for _, id := range ids {
		if m := c.members[id]; m.up {
			out = append(out, MemberStatus{ID: m.id, URL: m.url, Up: true})
		}
	}
	return out
}

// Metrics snapshots the counters and membership.
func (c *Coordinator) Metrics() Metrics {
	c.mu.Lock()
	members := make([]MemberStatus, 0, len(c.members))
	for _, id := range c.ring.Members() {
		m := c.members[id]
		members = append(members, MemberStatus{
			ID: m.id, URL: m.url, Up: m.up,
			Breaker: c.breakers.State(m.id).String(),
		})
	}
	c.mu.Unlock()
	return Metrics{
		Epoch:        c.epoch.Load(),
		Members:      members,
		Routed:       c.routed.Load(),
		Failovers:    c.failovers.Load(),
		Deduped:      c.deduped.Load(),
		NoReady:      c.noReady.Load(),
		Warms:        c.warms.Load(),
		Mutations:    c.mutations.Load(),
		Watches:      c.watches.Load(),
		Rejected:     c.rejected.Load(),
		Hedges:       c.hedges.Load(),
		HedgeWins:    c.hedgeWins.Load(),
		BreakerOpens: c.breakers.Opens(),
		BreakerOpen:  c.breakers.OpenPeers(),
	}
}

// Epoch returns the current ownership epoch.
func (c *Coordinator) Epoch() uint64 { return c.epoch.Load() }

// Drain stops admitting publishes (readyz flips to 503), stops the
// prober, cancels in-flight forwards, and waits for the warm-hint
// senders to finish.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.draining.Store(true)
	c.baseCancel()
	select {
	case <-c.probeDone:
	case <-ctx.Done():
		return ctx.Err()
	}
	done := make(chan struct{})
	go func() { c.warmWG.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close releases resources without the drain protocol (tests).
func (c *Coordinator) Close() {
	c.draining.Store(true)
	c.baseCancel()
	<-c.probeDone
	c.warmWG.Wait()
}

// Handler returns the coordinator's routes: POST /publish (routed),
// POST /mutate (routed to the database's owner, which replicates to
// its successors before acking — see mutate.go),
// GET /watch (stream-proxied to the pair's owner),
// POST /join ({"id":…,"url":…}), /healthz and /readyz. Each route but
// the last two declares its method, so net/http answers a wrong one
// with 405 and Allow; the three routed ones sit behind one drain gate.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	gated := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			if c.draining.Load() {
				c.reject(w, serve.ErrDraining)
				return
			}
			h(w, r)
		})
	}
	gated("POST /publish", c.handlePublish)
	gated("POST /mutate", c.handleMutate)
	gated("GET /watch", c.handleWatch)
	mux.HandleFunc("HEAD /watch", serve.RefuseHead)
	mux.HandleFunc("POST /join", c.handleJoin)
	mux.HandleFunc("/healthz", c.handleHealthz)
	mux.HandleFunc("/readyz", c.handleReadyz)
	return mux
}

// reject answers a refused request with its typed error and counts it
// under rejected: a drain, a malformed or oversized body, a bad
// X-Ptx-Deadline, or a malformed join.
func (c *Coordinator) reject(w http.ResponseWriter, err error) {
	c.rejected.Add(1)
	serve.WriteError(w, err)
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	var req struct {
		ID  string `json:"id"`
		URL string `json:"url"`
	}
	if err := dec.Decode(&req); err != nil {
		c.reject(w, serve.BodyError(err))
		return
	}
	if err := c.Join(req.ID, req.URL); err != nil {
		c.reject(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Epoch   uint64   `json:"epoch"`
		Members []string `json:"members"`
	}{c.epoch.Load(), c.membersSnapshot()})
}

func (c *Coordinator) membersSnapshot() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Members()
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Status   string  `json:"status"`
		Draining bool    `json:"draining"`
		Metrics  Metrics `json:"metrics"`
	}{"ok", c.draining.Load(), c.Metrics()})
}

func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if c.draining.Load() {
		serve.WriteError(w, serve.ErrDraining)
		return
	}
	if !c.anyUp() {
		serve.WriteError(w, ErrNoReady)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = io.WriteString(w, `{"status":"ready"}`+"\n")
}

func (c *Coordinator) anyUp() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.members {
		if m.up {
			return true
		}
	}
	return false
}

// upstream is one member's fully buffered answer.
type upstream struct {
	status int
	header http.Header
	body   []byte
}

// coordFlight is the coordinator-level singleflight: concurrent
// byte-identical requests share one routed execution (and therefore one
// worker-side run), so a thundering herd cannot amplify through the
// proxy. The shared value is the fully buffered upstream response.
type coordFlight struct {
	done    chan struct{}
	joiners int // followers waiting on done; guarded by Coordinator.mu
	upstream
}

// readPost reads one proxied POST: the size-capped body and the budget
// an upstream hop's X-Ptx-Deadline propagated (0: none; we are mid-chain
// and must only ever shrink it). On failure it has already answered.
func (c *Coordinator) readPost(w http.ResponseWriter, r *http.Request) ([]byte, time.Duration, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes))
	if err != nil {
		c.reject(w, serve.BodyError(err))
		return nil, 0, false
	}
	budget, _, err := serve.ParseDeadline(r.Header)
	if err != nil {
		c.reject(w, err)
		return nil, 0, false
	}
	return body, budget, true
}

func (c *Coordinator) handlePublish(w http.ResponseWriter, r *http.Request) {
	body, budget, ok := c.readPost(w, r)
	if !ok {
		return
	}
	// Resolve the time budget BEFORE routing: the propagated header
	// wins, then the body's own limits.timeout_ms, then ForwardBudget.
	if budget == 0 {
		budget = c.cfg.ForwardBudget
		if _, _, ms := routingPair(body); ms > 0 {
			budget = time.Duration(ms) * time.Millisecond
		}
	}
	// The run key doubles as the dedup key: byte-identical bodies are
	// one logical run, cluster-wide.
	sum := sha256.Sum256(body)
	runKey := hex.EncodeToString(sum[:])

	c.mu.Lock()
	if f, ok := c.flights[runKey]; ok {
		f.joiners++
		c.mu.Unlock()
		select {
		case <-f.done:
			c.deduped.Add(1)
			c.reply(w, f, true)
		case <-r.Context().Done():
			serve.WriteError(w, &runctl.ErrCanceled{Cause: r.Context().Err()})
		}
		return
	}
	f := &coordFlight{done: make(chan struct{})}
	c.flights[runKey] = f
	c.mu.Unlock()

	// The leader of a dedup flight forwards under budget+grace: the
	// worker gets the budget (via the propagated deadline header), the
	// extra grace covers relaying an answer that was typed at the wire.
	ctx, cancel := context.WithDeadline(c.baseCtx, time.Now().Add(budget+c.cfg.DeadlineGrace))
	f.upstream = c.forward(ctx, time.Now().Add(budget), body, runKey)
	cancel()
	c.mu.Lock()
	delete(c.flights, runKey)
	c.mu.Unlock()
	close(f.done)
	c.reply(w, f, false)
}

// joined reports how many followers have joined the flight in progress
// for runKey (0 when none is).
func (c *Coordinator) joined(runKey string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[runKey]; ok {
		return f.joiners
	}
	return 0
}

// reply writes a (possibly shared) buffered upstream response.
func (c *Coordinator) reply(w http.ResponseWriter, f *coordFlight, shared bool) {
	h := w.Header()
	copyProxyHeaders(h, f.header)
	h.Set("X-Ptcoord-Shared", strconv.FormatBool(shared))
	w.WriteHeader(f.status)
	_, _ = w.Write(f.body)
}

// attempt POSTs body to one member's path, stamping the handoff
// coordinates plus hdr. The epoch is read per-attempt: a failover bumps
// it, so the successor's request carries strictly more authority than
// the attempt that just failed. The remaining budget rides along as the
// propagated deadline, and the response is integrity-checked against
// the worker's checksum trailer — corruption or truncation surfaces
// here as a transport error, which is precisely what lets the caller
// fail over instead of relaying wrong bytes. A draining node's 503
// comes back as errDraining. The body is read into a pooled buffer and
// kept as one exact-length copy, which is what the flight relays.
func (c *Coordinator) attempt(ctx context.Context, m MemberStatus, path string, body []byte, budgetDeadline time.Time, hdr http.Header) (upstream, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.URL+path, bytes.NewReader(body))
	if err != nil {
		return upstream{}, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.HeaderEpoch, strconv.FormatUint(c.epoch.Load(), 10))
	req.Header.Set(serve.HeaderDeadline, serve.FormatDeadline(time.Until(budgetDeadline)))
	req.Header.Set(serve.HeaderWantSum, "1")
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return upstream{}, err
	}
	defer resp.Body.Close()
	buf := readBufs.Get().(*bytes.Buffer)
	_, err = buf.ReadFrom(resp.Body)
	respBody := bytes.Clone(buf.Bytes())
	if buf.Cap() <= maxPooledRead {
		buf.Reset()
		readBufs.Put(buf)
	}
	if err != nil {
		return upstream{}, err
	}
	if err := serve.VerifySum(resp, respBody); err != nil {
		return upstream{}, err
	}
	if resp.StatusCode == http.StatusServiceUnavailable && errorKind(respBody) == serve.KindDraining {
		return upstream{}, errDraining
	}
	return upstream{resp.StatusCode, resp.Header, respBody}, nil
}

// readBufs recycles attempt's read buffers; one that grew past
// maxPooledRead is left to the collector.
var readBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledRead = 1 << 20

// rlockWithin acquires the membership write barrier's read side, but
// gives up when ctx dies first: a mutation that cannot get past a
// stalled catch-up within its deadline budget fails typed instead of
// queueing forever. The helper goroutine unlocks on abandonment, so
// the barrier is never left held.
func (c *Coordinator) rlockWithin(ctx context.Context) bool {
	got := make(chan struct{}, 1)
	go func() {
		c.writeMu.RLock()
		got <- struct{}{}
	}()
	select {
	case <-got:
		return true
	case <-ctx.Done():
		// The acquisition may still land after we give up; hand the
		// lock straight back when it does. Bounded: every writer holds
		// the barrier for at most the SyncTimeout-bounded catch-up.
		go func() {
			<-got
			c.writeMu.RUnlock()
		}()
		return false
	}
}

// preference snapshots the up members of a key's preference list and
// remembers the (spec, db) pair for warm hints.
func (c *Coordinator) preference(pairKey string) []MemberStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.pairs[pairKey]; !ok && len(c.pairs) < 4096 {
		var spec, db string
		if i := bytes.IndexByte([]byte(pairKey), 0); i >= 0 {
			spec, db = pairKey[:i], pairKey[i+1:]
		}
		if spec != "" && db != "" {
			c.pairs[pairKey] = [2]string{spec, db}
		}
	}
	ids := c.ring.Prefer(pairKey, len(c.members))
	out := make([]MemberStatus, 0, len(ids))
	for _, id := range ids {
		if m := c.members[id]; m.up {
			out = append(out, MemberStatus{ID: m.id, URL: m.url, Up: true})
		}
	}
	return out
}

// markDown transitions a member to down and bumps the epoch; a no-op
// if it was already down (no spurious epoch churn).
func (c *Coordinator) markDown(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.members[id]
	if !ok || !m.up {
		return
	}
	m.up = false
	m.fails = 1
	m.next = time.Now().Add(c.cfg.ProbeInterval)
	c.epoch.Add(1)
}

// markUp transitions a member to up, bumps the epoch, and sends it
// warm hints for the pairs it is about to own. The up-flip happens
// under the write barrier AFTER the node catches up on the replicated
// mutation logs — a recovered node re-enters rotation post-delta, never
// with a stale log it could assign colliding sequence numbers from. A
// node whose catch-up does not reach every database's acked high-water
// mark stays down (with a probe backoff) and is retried: promoting it
// would let it reassign sequence numbers acked deltas already hold.
func (c *Coordinator) markUp(id string) {
	c.mu.Lock()
	m, ok := c.members[id]
	if !ok {
		c.mu.Unlock()
		return
	}
	if m.up {
		// Already up: a good probe forgives accumulated sub-threshold
		// failures, so only CONSECUTIVE misses can evict.
		m.fails = 0
		m.next = time.Time{}
		c.mu.Unlock()
		return
	}
	url := m.url
	c.mu.Unlock()

	c.writeMu.Lock()
	converged := c.syncMember(id, url)
	c.mu.Lock()
	if converged {
		m.up = true
		m.fails = 0
		m.next = time.Time{}
		c.epoch.Add(1)
	} else {
		m.next = time.Now().Add(c.cfg.ProbeInterval)
	}
	c.mu.Unlock()
	c.writeMu.Unlock()
	if converged {
		c.sendWarmHints(id, url)
	}
}

// sendWarmHints asynchronously primes a node's registry with every
// (spec, db) pair this coordinator has routed, so a rebalanced key's
// first request does not pay compilation latency. Best-effort: a hint
// that fails changes nothing but warmth.
func (c *Coordinator) sendWarmHints(id, url string) {
	c.mu.Lock()
	pairs := make([][2]string, 0, len(c.pairs))
	for _, p := range c.pairs {
		pairs = append(pairs, p)
	}
	c.mu.Unlock()
	if len(pairs) == 0 {
		return
	}
	c.warmWG.Add(1)
	go func() {
		defer c.warmWG.Done()
		payload, err := json.Marshal(struct {
			Pairs [][2]string `json:"pairs"`
		}{pairs})
		if err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(c.baseCtx, c.cfg.SyncTimeout)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/warm", bytes.NewReader(payload))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.cfg.Client.Do(req)
		if err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		c.warms.Add(1)
	}()
}

// routingPair extracts the (spec, db) routing key and the request's own
// timeout_ms (the seed of its deadline budget) from a request body.
// The parse is deliberately loose — a malformed body still routes (by
// empty pair) to SOME node, whose strict validator then produces the
// typed 400 the client expects; the coordinator never duplicates the
// worker's validation logic.
func routingPair(body []byte) (spec, db string, timeoutMS int64) {
	var req struct {
		Spec   string `json:"spec"`
		DB     string `json:"db"`
		Limits struct {
			TimeoutMS int64 `json:"timeout_ms"`
		} `json:"limits"`
	}
	_ = json.Unmarshal(body, &req)
	return req.Spec, req.DB, req.Limits.TimeoutMS
}

// errorKind extracts the wire-schema kind from an error body ("" when
// the body is not the schema).
func errorKind(body []byte) string {
	var eb struct {
		Error struct {
			Kind string `json:"kind"`
		} `json:"error"`
	}
	if json.Unmarshal(body, &eb) != nil {
		return ""
	}
	return eb.Error.Kind
}

// buffered renders a coordinator-origin error through the same stable
// schema the workers use.
func buffered(err error) upstream {
	rec := newRecorder()
	serve.WriteError(rec, err)
	return upstream{rec.status, rec.header, rec.buf.Bytes()}
}

// recorder is a minimal ResponseWriter for rendering error bodies into
// a coordFlight without importing httptest outside tests.
type recorder struct {
	status int
	header http.Header
	buf    bytes.Buffer
}

func newRecorder() *recorder { return &recorder{status: http.StatusOK, header: make(http.Header)} }

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(status int)      { r.status = status }
func (r *recorder) Write(p []byte) (int, error) { return r.buf.Write(p) }
