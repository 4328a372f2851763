// Package serve is the long-lived publishing server over the
// transducer runner: it loads a registry of compiled specs and database
// sources and serves publish requests as streamed XML, with the
// robustness machinery of the runctl/supervise layers as its
// foundation rather than an afterthought.
//
// The request path is hardened end to end:
//
//   - untrusted input — request bodies are size-capped, JSON is parsed
//     strictly, spec/db sources go through the parser behind panic
//     containment, and every option is validated BEFORE any evaluation
//     work is admitted;
//   - admission control — a bounded worker pool with a capped wait
//     queue; when the queue is full the request is shed immediately
//     (HTTP 429), and a request whose deadline expires while waiting
//     leaves with HTTP 408: nothing is ever queued to death;
//   - typed failures — the runctl error taxonomy maps onto a stable
//     JSON error schema and HTTP status codes (see errors.go), so a
//     client can always distinguish "your spec is broken" from "the
//     server is busy" from "your document hit its budget";
//   - deduplication — identical in-flight (spec, db, options) requests
//     share one transducer run and its caches (singleflight.go), and
//     repeated publishes of one (spec, db) pair version share its query
//     memo or, once an eligible run has rendered it, its document
//     through the registry;
//   - graceful drain — Drain stops admissions, lets in-flight runs
//     finish within a deadline, then cancels the stragglers so they
//     terminate with typed errors; /healthz and /readyz expose the
//     lifecycle to orchestrators.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ptx/internal/breaker"
	"ptx/internal/pt"
	"ptx/internal/relation"
	"ptx/internal/runctl"
	"ptx/internal/supervise"
)

// Config parameterizes a Server. The zero value of every field selects
// a production-sane default.
type Config struct {
	// Registry supplies specs and databases; required.
	Registry *Registry

	// Workers bounds concurrently executing publish runs (default 4).
	Workers int
	// Queue bounds requests waiting for a worker; beyond it requests
	// are shed immediately (default 16; 0 is a valid "never wait").
	Queue int

	// MaxBodyBytes caps the request body (default 1 MiB).
	MaxBodyBytes int64
	// DefaultTimeout applies when a request sets no timeout (default
	// 10s); MaxTimeout clamps what a request may ask for (default 60s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// DrainGrace is how long Drain waits for canceled stragglers after
	// the drain deadline has expired (default 2s).
	DrainGrace time.Duration

	// NodeID names this node in a cluster; it is echoed on every
	// response as X-Ptserve-Node so a coordinator's failover decisions
	// are observable end to end. Empty outside a cluster.
	NodeID string

	// Store, when set, enables cross-node checkpoint handoff: requests
	// carrying an X-Ptx-Run-Key header run supervised with periodic
	// fenced checkpoints into the store, resume from a predecessor's
	// snapshot when one exists, and leave their own snapshot behind on
	// failure so the NEXT owner can pick the run up. Nil disables.
	Store supervise.CheckpointStore

	// CheckpointEvery is the step interval between periodic store
	// checkpoints for handoff-eligible runs (default 64). Smaller means
	// less lost work on a hard kill, at more snapshot cost.
	CheckpointEvery int64

	// AllowInject enables the "inject" request field — seeded fault
	// injection for chaos tests. Never enable in production.
	AllowInject bool

	// MutateFaults injects crash points on the mutation path (tests
	// only): runctl.OpMutateAck fires after the delta is durable and
	// applied but before the 200 reaches the client — the post-fsync,
	// pre-ack crash. The WAL's own Options.Faults covers the pre-fsync
	// points. Never set in production.
	MutateFaults *runctl.FaultPlan

	// ReplicateClient issues synchronous replication and sync requests
	// to ring successors (default: a dedicated client with a 5s
	// timeout — a dead successor must delay an ack, not hang it).
	ReplicateClient *http.Client
}

// Request-policy constants: the node budget of a request that sets none
// (one passing max_nodes: -1 runs unlimited) and the clamp on a
// request's supervised retries.
const (
	defaultMaxNodes = 1_000_000
	maxRetries      = 5
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Queue < 0 {
		c.Queue = 0
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 2 * time.Second
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 64
	}
	if c.ReplicateClient == nil {
		c.ReplicateClient = &http.Client{Timeout: 5 * time.Second}
	}
	return c
}

// Metrics is a point-in-time snapshot of the server's counters.
type Metrics struct {
	Admitted  int64 `json:"admitted"` // publishes that took a worker; doc- and view-served ones take none
	Shed      int64 `json:"shed"`
	Rejected  int64 `json:"rejected"` // validation and draining rejections
	Succeeded int64 `json:"succeeded"`
	Failed    int64 `json:"failed"` // admitted runs that ended in a typed error
	Deduped   int64 `json:"deduped"`
	Resumed   int64 `json:"resumed"`  // handoff runs resumed from a store checkpoint
	Fenced    int64 `json:"fenced"`   // checkpoint writes rejected by the ownership fence
	Warmed    int64 `json:"warmed"`   // (spec, db) pairs primed via /warm
	Mutated   int64 `json:"mutated"`  // deltas accepted by /mutate
	Repaired  int64 `json:"repaired"` // successful live-view repairs
	Watched   int64 `json:"watched"`  // /watch requests served (poll + SSE)

	// ViewServed counts the Succeeded publishes answered from a live
	// view's tree instead of a run, DocServed those answered from their
	// pair version's stored document (see answer).
	ViewServed int64 `json:"view_served"`
	DocServed  int64 `json:"doc_served"`

	// Durability counters (zero without an attached WAL): Appended and
	// Fsyncs come from the write-ahead log, Recovered is how many
	// records startup replay restored, Replicated counts records this
	// node accepted from peers over /replicate or pushed during /sync.
	Appended   int64 `json:"appended"`
	Fsyncs     int64 `json:"fsyncs"`
	Recovered  int64 `json:"recovered"`
	Replicated int64 `json:"replicated"`

	// Replica circuit-breaker observables: total open transitions and
	// the replicas currently open or half-open.
	BreakerOpens int64    `json:"breaker_opens"`
	BreakerOpen  []string `json:"breaker_open,omitempty"`

	InFlight int `json:"in_flight"`
	Queued   int `json:"queued"`
}

// Server is the hardened concurrent publishing service. Create with
// New, mount Handler on an http.Server, and call Drain on shutdown.
type Server struct {
	cfg     Config
	reg     *Registry
	adm     *Admission
	flights *flightGroup

	// baseCtx is the lifecycle context publish runs execute under —
	// detached from any single request, canceled to abort stragglers
	// at the end of a drain.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// repBreakers holds one circuit breaker per replica id, with the
	// breaker defaults; the replication push path (replicateOut) feeds
	// and respects them, so a replica that keeps failing is fail-fasted
	// (still withholding the ack) instead of charging every mutation a
	// full replication timeout.
	repBreakers *breaker.Set

	// views maps a (spec, db) pairKey to its *liveView, which reads the
	// pair's registry versions. A view is added under its database's
	// writer lock (mutate.go); a publish reads the map without it, so it
	// never waits on a mutation's WAL fsync.
	views sync.Map

	admitted   atomic.Int64
	shed       atomic.Int64
	rejected   atomic.Int64
	succeeded  atomic.Int64
	failed     atomic.Int64
	deduped    atomic.Int64
	resumed    atomic.Int64
	fenced     atomic.Int64
	warmed     atomic.Int64
	mutated    atomic.Int64
	repaired   atomic.Int64
	watched    atomic.Int64
	viewServed atomic.Int64
	docServed  atomic.Int64
	replicated atomic.Int64
}

// New builds a server from cfg (cfg.Registry is required).
func New(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, Validationf("config", "nil registry")
	}
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		reg:         cfg.Registry,
		adm:         NewAdmission(cfg.Workers, cfg.Queue),
		flights:     newFlightGroup(),
		baseCtx:     ctx,
		baseCancel:  cancel,
		repBreakers: breaker.NewSet(breaker.Config{}),
	}
	return s, nil
}

// Handler returns the server's routes. Each declares its method, so
// net/http answers a wrong one with 405 and Allow. The routes that start
// work sit behind one drain gate, and one wrapper names this node on
// every response (X-Ptserve-Node) and adds the body-integrity trailer a
// buffering caller (the coordinator) asks for with HeaderWantSum.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	gated := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			if s.adm.Draining() {
				s.reject(w, ErrDraining)
				return
			}
			h(w, r)
		})
	}
	gated("POST /publish", s.handlePublish)
	gated("POST /mutate", s.handleMutate)
	gated("POST /replicate", s.handleReplicate)
	gated("POST /sync", s.handleSync)
	gated("GET /watch", s.handleWatch)
	mux.HandleFunc("HEAD /watch", RefuseHead)
	mux.HandleFunc("GET /deltalog", s.handleDeltaLog)
	mux.HandleFunc("POST /warm", s.handleWarm)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	return sumResponses(s.cfg.NodeID, mux)
}

// reject answers a refused request with its typed error and counts it
// under rejected: a validation failure, a drain, or a write that failed.
func (s *Server) reject(w http.ResponseWriter, err error) {
	s.rejected.Add(1)
	WriteError(w, err)
}

// Metrics snapshots the counters.
func (s *Server) Metrics() Metrics {
	wm := s.reg.WALMetrics()
	return Metrics{
		Admitted:  s.admitted.Load(),
		Shed:      s.shed.Load(),
		Rejected:  s.rejected.Load(),
		Succeeded: s.succeeded.Load(),
		Failed:    s.failed.Load(),
		Deduped:   s.deduped.Load(),
		Resumed:   s.resumed.Load(),
		Fenced:    s.fenced.Load(),
		Warmed:    s.warmed.Load(),
		Mutated:   s.mutated.Load(),
		Repaired:  s.repaired.Load(),
		Watched:   s.watched.Load(),
		Appended:  wm.Appended,
		Fsyncs:    wm.Fsyncs,
		Recovered: wm.Recovered,

		ViewServed:   s.viewServed.Load(),
		DocServed:    s.docServed.Load(),
		Replicated:   s.replicated.Load(),
		BreakerOpens: s.repBreakers.Opens(),
		BreakerOpen:  s.repBreakers.OpenPeers(),
		InFlight:     s.adm.Active(),
		Queued:       s.adm.Waiting(),
	}
}

// Drain gracefully shuts the server down: admissions stop (queued
// waiters leave with ErrDraining, /readyz flips to 503), in-flight runs
// get until ctx's deadline to finish, and any stragglers are then
// canceled — they terminate with typed errors (and, with a Store and a
// run key, a resumable checkpoint in the store) within DrainGrace.
// Drain returns nil for a clean shutdown, including the forced-cancel
// path; it errors only if work survived cancellation.
func (s *Server) Drain(ctx context.Context) error {
	if err := s.adm.Drain(ctx); err == nil {
		s.baseCancel()
		return nil
	}
	// Deadline expired with runs still in flight: cancel them and give
	// the typed-error unwind a bounded grace period.
	s.baseCancel()
	grace, cancel := context.WithTimeout(context.Background(), s.cfg.DrainGrace)
	defer cancel()
	if err := s.adm.Drain(grace); err != nil {
		return fmt.Errorf("serve: drain: %d runs survived cancellation: %w", s.adm.Active(), err)
	}
	return nil
}

// Close releases the server's lifecycle resources without draining
// (tests; production should Drain).
func (s *Server) Close() { s.baseCancel() }

// publishRequest is the wire schema of POST /publish. Unknown fields
// are rejected — silently ignoring a misspelled option would admit
// work the client did not mean to pay for.
type publishRequest struct {
	Spec      string         `json:"spec"`
	DB        string         `json:"db"`
	Canonical bool           `json:"canonical,omitempty"`
	Cache     string         `json:"cache,omitempty"`
	Retries   int            `json:"retries,omitempty"`
	Limits    limitsRequest  `json:"limits,omitempty"`
	Inject    *injectRequest `json:"inject,omitempty"`
}

type limitsRequest struct {
	TimeoutMS  int64 `json:"timeout_ms,omitempty"`
	MaxNodes   int   `json:"max_nodes,omitempty"`
	MaxDepth   int   `json:"max_depth,omitempty"`
	MaxQueries int   `json:"max_queries,omitempty"`
}

// injectRequest is the chaos-test fault schedule: each listed op fails
// with its probability, drawn from a PRNG seeded with Seed, injecting a
// transient error (see runctl.SeededPlan). Only honored when
// Config.AllowInject is set.
type injectRequest struct {
	Seed  int64              `json:"seed"`
	Probs map[string]float64 `json:"probs"`
}

// admitted bundles everything validation produced for one request.
type admitted struct {
	req  publishRequest
	opts pt.Options
	key  flightKey

	// servable reports whether the publish may be answered without a
	// run of its own, from its version's document or a live view: it
	// injects no faults, uses the default cache mode and sets no budget
	// but its timeout. Under those options a successful run returns
	// exactly τ(inst), so only its node and query counts could tell the
	// answers apart. The handoff coordinates in key play no part: they
	// matter only to a publish that runs.
	servable bool
}

// flightKey identifies a publish run for dedup (see flightGroup): it
// holds every run-relevant option, so two keys are equal only if the
// runs are. Canonical-vs-XML rendering is per-request and deliberately
// excluded.
type flightKey struct {
	spec, db string
	cache    pt.CacheMode
	retries  int
	limits   runctl.Limits
	// faults is the fault schedule: its seed, then each op with its
	// probability, in op-name order; "" without injection.
	faults string

	// runKey/epoch are the cluster handoff coordinates (the
	// X-Ptx-Run-Key and X-Ptx-Epoch headers): the shared-store key this
	// run checkpoints under and the ownership epoch its writes carry.
	// Zero values outside a cluster. Keying by the epoch keeps a flight
	// fenced under an old epoch from handing its failure to a request
	// routed under a newer one.
	runKey string
	epoch  uint64
}

// Handoff protocol headers. The coordinator stamps both on every
// routed request; a server with a Store honors them, anyone else
// ignores them.
const (
	HeaderRunKey = "X-Ptx-Run-Key"
	HeaderEpoch  = "X-Ptx-Epoch"
)

// validate turns the wire request into run options, or a typed
// *ValidationError. No evaluation work happens here.
func (s *Server) validate(req publishRequest) (*admitted, error) {
	if req.Spec == "" {
		return nil, Validationf("spec", "missing")
	}
	if req.DB == "" {
		return nil, Validationf("db", "missing")
	}
	cacheMode := pt.CacheQueries // server default: share warm results
	if req.Cache != "" {
		m, err := pt.ParseCacheMode(req.Cache)
		if err != nil {
			return nil, Validationf("cache", "%v", err)
		}
		cacheMode = m
	}
	if req.Retries < 0 {
		return nil, Validationf("retries", "negative")
	}
	retries := min(req.Retries, maxRetries)

	l := req.Limits
	if l.TimeoutMS < 0 || l.MaxDepth < 0 || l.MaxQueries < 0 || l.MaxNodes < -1 {
		return nil, Validationf("limits", "negative budget")
	}
	timeout := s.cfg.DefaultTimeout
	if l.TimeoutMS > 0 {
		timeout = min(time.Duration(l.TimeoutMS)*time.Millisecond, s.cfg.MaxTimeout)
	}
	maxNodes := l.MaxNodes
	switch {
	case maxNodes == 0:
		maxNodes = defaultMaxNodes
	case maxNodes == -1:
		maxNodes = 0 // explicit "unlimited"
	}
	limits := runctl.Limits{
		Timeout:    timeout,
		MaxNodes:   maxNodes,
		MaxDepth:   l.MaxDepth,
		MaxQueries: l.MaxQueries,
	}

	key := flightKey{spec: req.Spec, db: req.DB, cache: cacheMode, retries: retries, limits: limits}
	var faults *runctl.FaultPlan
	if req.Inject != nil {
		if !s.cfg.AllowInject {
			return nil, Validationf("inject", "fault injection is disabled on this server")
		}
		probs := make(map[runctl.Op]float64, len(req.Inject.Probs))
		names := make([]string, 0, len(req.Inject.Probs))
		for name, p := range req.Inject.Probs {
			op := runctl.Op(name)
			if !slices.Contains(runctl.Ops(), op) {
				return nil, Validationf("inject", "unknown op %q", name)
			}
			if p < 0 || p > 1 {
				return nil, Validationf("inject", "probability for %q outside [0,1]", name)
			}
			probs[op] = p
			names = append(names, name)
		}
		sort.Strings(names)
		// Ops are a fixed vocabulary of plain names, so ';' and '='
		// delimit the schedule unambiguously.
		sched := strconv.AppendInt(nil, req.Inject.Seed, 10)
		for _, n := range names {
			sched = append(sched, ';')
			sched = append(sched, n...)
			sched = append(sched, '=')
			sched = strconv.AppendFloat(sched, probs[runctl.Op(n)], 'g', -1, 64)
		}
		key.faults = string(sched)
		faults = runctl.SeededPlan(req.Inject.Seed,
			runctl.Transient(fmt.Errorf("injected fault (seed %d)", req.Inject.Seed)), probs)
	}

	opts := pt.Options{
		Limits: &limits,
		Cache:  cacheMode,
		Faults: faults,
	}
	servable := faults == nil && cacheMode == pt.CacheQueries && l.MaxNodes == 0 && l.MaxDepth == 0 && l.MaxQueries == 0
	return &admitted{req: req, opts: opts, key: key, servable: servable}, nil
}

func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	// Untrusted input path: size cap, strict JSON, full validation —
	// all before any admission or evaluation work.
	var req publishRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.reject(w, err)
		return
	}
	// Deadline propagation: an upstream hop's remaining budget clamps
	// this run's wall clock DOWN (never up), and it must land before
	// validate — the dedup key bakes in the effective timeout, so two
	// requests with different budgets are different flights.
	if budget, ok, derr := ParseDeadline(r.Header); derr != nil {
		s.reject(w, derr)
		return
	} else if ok {
		ms := int64(budget / time.Millisecond)
		if ms < 1 {
			ms = 1
		}
		cur := req.Limits.TimeoutMS
		if cur == 0 {
			cur = int64(s.cfg.DefaultTimeout / time.Millisecond)
		}
		if ms < cur {
			req.Limits.TimeoutMS = ms
		}
	}
	adm, err := s.validate(req)
	if err != nil {
		s.reject(w, err)
		return
	}
	// Handoff coordinates: honored only when this node has a store; a
	// standalone server ignores them rather than promising checkpoint
	// durability it cannot deliver.
	if s.cfg.Store != nil {
		if adm.key.runKey = r.Header.Get(HeaderRunKey); adm.key.runKey != "" {
			if adm.key.epoch, err = parseEpoch(r.Header); err != nil {
				s.reject(w, err)
				return
			}
		}
	}
	tr, ver, err := s.reg.version(req.Spec, req.DB)
	if err != nil {
		s.reject(w, err)
		return
	}
	// A publish its version answers takes no worker: it is never queued
	// or shed behind runs, whatever its run key.
	if adm.servable {
		if doc := s.answer(adm, ver); doc != nil {
			s.writeServed(w, adm, doc)
			return
		}
	}
	if adm.opts.Cache >= pt.CacheQueries && adm.opts.Faults == nil {
		// Warm-path sharing: the registry's per-(spec,db) memo. Faulted
		// runs keep private memos, so a fault schedule never depends on
		// how warm the memo is.
		adm.opts.Memo = ver.memo
	}

	// The request's wall clock starts now and covers queue time: a
	// request that would begin evaluation after its deadline is
	// rejected while waiting, never run.
	reqCtx, cancelReq := context.WithTimeout(r.Context(), adm.key.limits.Timeout)
	defer cancelReq()

	release, err := s.adm.Acquire(reqCtx)
	if err != nil {
		var oe *ErrOverloaded
		if errors.As(err, &oe) {
			s.shed.Add(1)
			WriteError(w, err)
		} else {
			s.reject(w, err)
		}
		return
	}
	defer release()
	s.admitted.Add(1)

	f, shared, err := s.flights.do(reqCtx, adm.key, func(f *flight) {
		f.inst = ver.inst
		f.res, f.attempts, f.resumed, f.err = s.execute(tr, ver.inst, adm)
	})
	if shared {
		s.deduped.Add(1)
	}
	if err != nil {
		s.failed.Add(1)
		WriteError(w, err)
		return
	}
	s.succeeded.Add(1)

	res := f.res
	replyHeaders(w.Header(), f.attempts, shared, res.Stats)
	if adm.key.runKey != "" {
		w.Header().Set("X-Ptserve-Resumed", strconv.FormatBool(f.resumed))
	}
	if adm.servable {
		writeDocument(w, s.fill(tr, f, adm))
		return
	}
	// Stream straight from ξ: the writers splice virtual tags at
	// emission and never materialize a copy. A write failure here means
	// the client went away; the status line is already committed, so
	// just stop.
	if adm.req.Canonical {
		if werr := res.Xi.WriteCanonicalVirtual(w, tr.Virtual); werr == nil {
			_, _ = io.WriteString(w, "\n")
		}
	} else {
		_ = res.Xi.WriteXMLVirtual(w, tr.Virtual)
	}
}

// renderBufs recycles the render buffers of answer and fill; one
// that grew past maxPooledRender is left to the collector. A document
// longer than maxPooledRender is not kept either (see keep).
var renderBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledRender = 1 << 20

func putRenderBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledRender {
		buf.Reset()
		renderBufs.Put(buf)
	}
}

// answer returns the document of τ(ver.inst) that answers a servable
// publish without a run of its own, or nil when the publish must run.
// It is ver's stored document in the request's form if there is one.
// Otherwise it is a render of the live view over the pair, when the
// view's tree reflects ver.inst: by Proposition 1(1) τ(inst) is a
// function of inst, so the bytes are the run's bytes, and they are kept
// on ver like a run's (see keep). The render goes to a buffer, and the
// network write happens after the view's read lock is released, so a
// slow client never stalls a repair.
func (s *Server) answer(adm *admitted, ver pairVersion) *document {
	if doc := ver.docs[docForm(adm.req.Canonical)]; doc != nil {
		s.docServed.Add(1)
		return doc
	}
	lv := s.liveView(adm.req.Spec, adm.req.DB)
	if lv == nil {
		return nil
	}
	buf := renderBufs.Get().(*bytes.Buffer)
	_, nodes, inst, err := lv.view.Render(buf, adm.req.Canonical)
	if err != nil || inst != ver.inst {
		putRenderBuf(buf)
		return nil
	}
	if adm.req.Canonical {
		buf.WriteByte('\n')
	}
	s.viewServed.Add(1)
	return s.keep(adm, inst, buf, nodes)
}

// fill returns the document of f's successful run in the request's
// output form, rendering it once per flight: every servable member of
// the flight shares the bytes, and keep stores them on the pair version
// the run resolved. A failed render is only shared within the flight.
func (s *Server) fill(tr *pt.Transducer, f *flight, adm *admitted) *document {
	slot := &f.docs[docForm(adm.req.Canonical)]
	slot.once.Do(func() {
		buf := renderBufs.Get().(*bytes.Buffer)
		var err error
		if adm.req.Canonical {
			if err = f.res.Xi.WriteCanonicalVirtual(buf, tr.Virtual); err == nil {
				buf.WriteByte('\n')
			}
		} else {
			err = f.res.Xi.WriteXMLVirtual(buf, tr.Virtual)
		}
		if err != nil {
			slot.doc = &document{body: buf.Bytes(), nodes: f.res.Stats.Nodes}
			return
		}
		slot.doc = s.keep(adm, f.inst, buf, f.res.Stats.Nodes)
	})
	return slot.doc
}

// keep makes a document of buf, a rendering of τ(inst) in the request's
// form whose tree has the given node count. A document of at most
// maxPooledRender bytes is kept, as an exact-size copy, on the pair
// version inst (Registry.keepDocument, which also releases that
// version's memo), so later publishes of the version are served from
// it, and buf returns to the pool. A longer one is not kept, and its
// version keeps its memo.
func (s *Server) keep(adm *admitted, inst *relation.Instance, buf *bytes.Buffer, nodes int) *document {
	doc := &document{body: buf.Bytes(), nodes: nodes}
	if buf.Len() <= maxPooledRender {
		doc.body = bytes.Clone(doc.body)
		putRenderBuf(buf)
		s.reg.keepDocument(adm.req.Spec, adm.req.DB, inst, adm.req.Canonical, doc)
	}
	return doc
}

// writeServed answers a publish that needed no run of its own, and took
// no worker, with doc, τ(inst) for the version it resolved.
func (s *Server) writeServed(w http.ResponseWriter, adm *admitted, doc *document) {
	s.succeeded.Add(1)
	replyHeaders(w.Header(), 1, false, pt.Stats{Nodes: doc.nodes, CacheMode: adm.opts.Cache})
	writeDocument(w, doc)
}

// replyHeaders stamps a successful publish's headers: the attempts it
// took, whether it shared a flight, and the node, query and cache
// figures of the run that produced it (no queries for a served one).
func replyHeaders(h http.Header, attempts int, shared bool, st pt.Stats) {
	h.Set("Content-Type", "application/xml; charset=utf-8")
	h.Set("X-Ptserve-Attempts", strconv.Itoa(attempts))
	h.Set("X-Ptserve-Shared", strconv.FormatBool(shared))
	h.Set("X-Ptserve-Nodes", strconv.Itoa(st.Nodes))
	h.Set("X-Ptserve-Queries", strconv.Itoa(st.QueriesRun))
	h.Set("X-Ptserve-Cache", st.CacheMode.String())
}

// parseEpoch reads the ownership epoch of X-Ptx-Epoch: 0 when absent, a
// validation error when malformed.
func parseEpoch(h http.Header) (uint64, error) {
	e := h.Get(HeaderEpoch)
	if e == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(e, 10, 64)
	if err != nil {
		return 0, Validationf("epoch", "malformed %s header %q", HeaderEpoch, e)
	}
	return n, nil
}

// execute runs one admitted publish under supervision and the server's
// lifecycle context — detached from the leader's own request so a
// client disconnect cannot poison the shared result. Transient failures
// are retried with fresh budgets up to adm.key.retries times. A run with a
// handoff key (adm.key.runKey, set only when a Store exists) also
// checkpoints into the store under it, every write fenced by adm.key.epoch:
// it resumes a predecessor's snapshot when one exists, deletes the
// entry on success, and leaves its own last checkpoint on failure so
// the run's NEXT owner picks up where this one stopped.
func (s *Server) execute(tr *pt.Transducer, inst *relation.Instance, adm *admitted) (*pt.Result, int, bool, error) {
	sopts := supervise.Options{
		Run:     adm.opts,
		Retries: adm.key.retries,
		Backoff: supervise.Backoff{Base: 2 * time.Millisecond, Max: 250 * time.Millisecond},
	}
	var snap *supervise.Snapshot
	if adm.key.runKey != "" {
		// A predecessor stored at a HIGHER epoch means this request was
		// routed with stale ownership — a successor is already past us.
		// Refuse before doing any work; the coordinator re-routes.
		var storedEpoch uint64
		var err error
		snap, storedEpoch, err = s.cfg.Store.Load(adm.key.runKey)
		switch {
		case err != nil:
			// A corrupt entry is never resumed from — and never trusted
			// again. Start fresh; our first fenced Save overwrites it.
			snap = nil
		case snap != nil && storedEpoch > adm.key.epoch:
			s.fenced.Add(1)
			return nil, 0, false, &supervise.ErrFenced{Key: adm.key.runKey, Epoch: adm.key.epoch, Stored: storedEpoch}
		case snap != nil && snap.Verify(tr, inst) != nil:
			// Snapshot from a different (spec, db) under a colliding key:
			// resuming it would splice someone else's tree into ours.
			snap = nil
		}
		sopts.Checkpoint = true
		sopts.CheckpointEvery = s.cfg.CheckpointEvery
		sopts.OnCheckpoint = func(ck *supervise.Snapshot) error {
			err := s.cfg.Store.Save(adm.key.runKey, adm.key.epoch, ck)
			var fe *supervise.ErrFenced
			if errors.As(err, &fe) {
				// Ownership moved while we ran: abort — a successor is
				// already making progress and our result is unwanted.
				s.fenced.Add(1)
				return fe
			}
			// Other store failures (disk pressure, transient I/O) are
			// best-effort: the run keeps going, durability degrades.
			return nil
		}
	}

	var res *pt.Result
	var rep *supervise.Report
	var err error
	if snap != nil {
		s.resumed.Add(1)
		res, rep, err = supervise.Resume(s.baseCtx, tr, inst, snap, sopts)
	} else {
		res, rep, err = supervise.Run(s.baseCtx, tr, inst, sopts)
	}
	if adm.key.runKey != "" {
		if err == nil {
			// Fenced: a zombie finishing late must not erase its
			// successor's progress.
			_ = s.cfg.Store.Delete(adm.key.runKey, adm.key.epoch)
		} else if rep.Snapshot != nil {
			// The failure-time frontier is exactly the remaining work;
			// leave it for the next owner (fenced — a successor may
			// already have written past us, in which case theirs wins).
			_ = s.cfg.Store.Save(adm.key.runKey, adm.key.epoch, rep.Snapshot)
		}
	}
	return res, rep.Attempts, snap != nil, err
}

// warmRequest is the wire schema of POST /warm: the coordinator's
// rebalance hint listing (spec, db) pairs the receiving node is about
// to own, so their compiled specs and databases are resident before the
// first routed request lands.
type warmRequest struct {
	Pairs [][2]string `json:"pairs"`
}

// decodeBody strictly decodes r's JSON body into v: capped at
// MaxBodyBytes, unknown fields rejected, failures typed by BodyError.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return BodyError(err)
	}
	return nil
}

// handleWarm primes the registry's per-(spec,db) state. Unknown pairs
// are skipped, not errors: a hint can outlive a registry change, and a
// stale hint must never fail a rebalance.
func (s *Server) handleWarm(w http.ResponseWriter, r *http.Request) {
	var req warmRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.reject(w, err)
		return
	}
	n := 0
	for _, p := range req.Pairs {
		if _, _, _, err := s.reg.Pair(p[0], p[1]); err == nil {
			n++
		}
	}
	s.warmed.Add(int64(n))
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Warmed int `json:"warmed"`
	}{n})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Status   string  `json:"status"`
		Draining bool    `json:"draining"`
		Metrics  Metrics `json:"metrics"`
	}{"ok", s.adm.Draining(), s.Metrics()})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.adm.Draining() {
		WriteError(w, ErrDraining)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = io.WriteString(w, `{"status":"ready"}`+"\n")
}
