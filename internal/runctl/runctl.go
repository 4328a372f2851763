// Package runctl is the run-control layer shared by the long-running
// parts of the system: the transducer runner (internal/pt), the formula
// evaluator (internal/eval) and the decision procedures
// (internal/decide).
//
// The paper guarantees that every transformation terminates
// (Proposition 1(1)), but termination is a weak promise in practice:
// relation-store transducers legitimately produce doubly-exponential
// trees (Proposition 1(4)), and the static analyses range from NP-hard
// to non-elementary, so any of these calls can run effectively forever
// on hostile input. runctl turns "effectively forever" into a typed,
// inspectable error:
//
//   - Limits bounds a run by wall clock, generated nodes, tree depth,
//     evaluated queries and fixpoint iterations;
//   - Controller binds a context.Context to a Limits value and hands
//     out cheap, concurrency-safe checkpoints;
//   - ErrCanceled / ErrBudget / ErrInternal are errors.Is/As-friendly
//     error types that callers can dispatch on;
//   - Recover converts internal panics at an API boundary into
//     *ErrInternal instead of killing the process;
//   - FaultPlan is a test-only deterministic fault injector ("fail the
//     Nth query") used to prove that errors propagate cleanly through
//     every layer.
//
// All Controller methods are safe on a nil receiver, which means
// call sites can thread a controller unconditionally and pay nothing
// when no limits are configured.
package runctl

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// BudgetKind names the resource whose budget was exhausted.
type BudgetKind string

const (
	BudgetNodes      BudgetKind = "nodes"
	BudgetDepth      BudgetKind = "tree-depth"
	BudgetQueries    BudgetKind = "queries"
	BudgetFixpoint   BudgetKind = "fixpoint-iterations"
	BudgetCandidates BudgetKind = "candidates"
)

// Limits bounds a run. The zero value imposes no limits.
type Limits struct {
	// Timeout is the wall-clock budget for the whole run; applied as a
	// context deadline by WithTimeout. 0 means none.
	Timeout time.Duration
	// MaxNodes caps the number of generated tree nodes.
	MaxNodes int
	// MaxDepth caps the depth of the generated tree (the root is at
	// depth 1).
	MaxDepth int
	// MaxQueries caps the number of rule-query evaluations. A rule step
	// evaluates each distinct query of its rule once, so items sharing
	// a query are charged once.
	MaxQueries int
	// MaxFixpointIters caps the iterations of any single inflationary
	// fixpoint loop.
	MaxFixpointIters int
}

// WithTimeout derives a context carrying the wall-clock budget. The
// returned cancel func must always be called.
func (l Limits) WithTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if l.Timeout <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, l.Timeout)
}

// ErrCanceled reports that a run stopped because its context was
// canceled or its deadline expired. It unwraps to the context error, so
// errors.Is(err, context.DeadlineExceeded) works.
type ErrCanceled struct{ Cause error }

func (e *ErrCanceled) Error() string {
	return fmt.Sprintf("runctl: run canceled: %v", e.Cause)
}

func (e *ErrCanceled) Unwrap() error { return e.Cause }

// ErrBudget reports that a resource budget was exhausted. The result of
// the interrupted computation is unknown ("undecided"), not negative.
// Observed is the count actually reached when the budget tripped — at
// least Limit+1 for counted budgets — so callers can tell a budget that
// was barely exceeded from one that was swamped (one expansion step may
// add many nodes at once).
type ErrBudget struct {
	Kind     BudgetKind
	Limit    int
	Observed int
}

func (e *ErrBudget) Error() string {
	return fmt.Sprintf("runctl: %s budget exhausted (observed %d, limit %d)", e.Kind, e.Observed, e.Limit)
}

// ErrInternal wraps a panic recovered at a public API boundary, with
// the operation that was running and the stack at the panic site.
type ErrInternal struct {
	Op    string
	Panic any
	Stack []byte
}

func (e *ErrInternal) Error() string {
	return fmt.Sprintf("runctl: internal error in %s: %v", e.Op, e.Panic)
}

// InternalFrom builds an *ErrInternal for a recovered panic value,
// capturing the current stack.
func InternalFrom(op string, p any) *ErrInternal {
	return &ErrInternal{Op: op, Panic: p, Stack: debug.Stack()}
}

// Recover is deferred at public API boundaries: it converts a panic in
// the enclosed call into an *ErrInternal assigned to *errp.
//
//	func Public() (err error) {
//	    defer runctl.Recover(&err, "pkg.Public")
//	    ...
//	}
func Recover(errp *error, op string) {
	if p := recover(); p != nil {
		*errp = InternalFrom(op, p)
	}
}

// ErrTransient marks an error as transient: the operation that failed
// may succeed if simply retried. The supervision layer retries
// transient errors and treats everything unmarked — spec bugs,
// validation failures — as permanent. Fault injectors wrap their
// errors with Transient so chaos runs exercise the retry path.
type ErrTransient struct{ Cause error }

func (e *ErrTransient) Error() string {
	return fmt.Sprintf("runctl: transient: %v", e.Cause)
}

func (e *ErrTransient) Unwrap() error { return e.Cause }

// Transient wraps err as retryable; Transient(nil) is nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &ErrTransient{Cause: err}
}

// IsTransient reports whether err carries a transient marker anywhere in
// its chain.
func IsTransient(err error) bool {
	var te *ErrTransient
	return errors.As(err, &te)
}

// Op identifies an operation class for fault injection.
type Op string

const (
	// OpQuery is one rule-query evaluation.
	OpQuery Op = "query"
	// OpNode is one batch of node materializations.
	OpNode Op = "node"
	// OpEval is one formula evaluation inside internal/eval (finer than
	// OpQuery: memo hits skip it, and the decision procedures hit it
	// without going through the transducer runner).
	OpEval Op = "eval"
	// OpSerialize is one write of the streaming XML serializers; injected
	// by wrapping the output io.Writer (see supervise/chaos), not by the
	// controller.
	OpSerialize Op = "serialize"
	// OpWALAppend is one durable-log record write, checked BEFORE any
	// bytes reach the segment: an injected fault is a pre-fsync crash
	// and the record is atomically absent.
	OpWALAppend Op = "wal-append"
	// OpWALSync is the fsync sealing one durable-log record, checked
	// after the bytes are written but before they are durable: the log
	// rolls the write back, exactly what power loss between write and
	// sync leaves after torn-tail recovery.
	OpWALSync Op = "wal-sync"
	// OpMutateAck is the acknowledgment of one accepted mutation,
	// checked after the delta is durable but before the client sees the
	// 200: a post-fsync/pre-ack crash — the client must treat the
	// outcome as unknown and retry (deltas are idempotent).
	OpMutateAck Op = "mutate-ack"
	// OpNetRequest is one inter-node HTTP request leaving a process,
	// checked by the netchaos mesh before the dial: an injected fault is
	// an immediate connection refusal, composing the Nth-op and seeded
	// modes with the mesh's own link faults.
	OpNetRequest Op = "net-request"
)

// Ops lists every operation kind, for iteration in tests and harnesses.
func Ops() []Op {
	return []Op{OpQuery, OpNode, OpEval, OpSerialize, OpWALAppend, OpWALSync, OpMutateAck, OpNetRequest}
}

// FaultPlan injects deterministic test-only failures. It has two
// composable modes:
//
//   - Nth-op: Op/N/Err fail exactly the Nth operation of one kind (the
//     historical behavior, byte-compatible with existing tests);
//   - probabilistic: Probs[op] gives a per-operation failure
//     probability, driven by a PRNG seeded with Seed, so a whole family
//     of "randomized" fault schedules is reproducible from one integer.
//
// The zero value (and nil) injects nothing.
type FaultPlan struct {
	Op  Op
	N   int64 // 1-based index of the operation to fail; 0 disables
	Err error // the error to inject

	// Probs maps operation kinds to failure probabilities in [0,1];
	// draws come from a PRNG seeded with Seed. Concurrent runs may
	// interleave draws differently, so which op fails can vary, but a
	// serial run is fully reproducible from (Seed, Probs).
	Probs map[Op]float64
	Seed  int64

	count atomic.Int64

	mu  sync.Mutex // guards rng
	rng *rand.Rand
}

// SeededPlan builds a probabilistic plan failing each op of a listed
// kind with its given probability, injecting err (callers usually pass a
// Transient-wrapped error so supervision retries it).
func SeededPlan(seed int64, err error, probs map[Op]float64) *FaultPlan {
	return &FaultPlan{Seed: seed, Err: err, Probs: probs}
}

// Check counts the operation and returns the injected error when either
// mode fires: the Nth occurrence of the planned kind, or a seeded coin
// flip under Probs. It is exported so layers the controller cannot see
// (e.g. serializer wrappers) can participate in the same plan.
func (p *FaultPlan) Check(op Op) error {
	if p == nil {
		return nil
	}
	if prob := p.Probs[op]; prob > 0 {
		p.mu.Lock()
		if p.rng == nil {
			p.rng = rand.New(rand.NewSource(p.Seed))
		}
		hit := p.rng.Float64() < prob
		p.mu.Unlock()
		if hit {
			return p.Err
		}
	}
	if p.N > 0 && p.Op == op && p.count.Add(1) == p.N {
		return p.Err
	}
	return nil
}

// check is the internal spelling used by the controller.
func (p *FaultPlan) check(op Op) error { return p.Check(op) }

// Observed reports how many operations of the Nth-op planned kind have
// been counted so far — a direct measure of how much work ran before
// (and concurrently with) the injected fault.
func (p *FaultPlan) Observed() int64 {
	if p == nil {
		return 0
	}
	return p.count.Load()
}

// planKey carries a *FaultPlan through a context (see WithPlan).
type planKey struct{}

// WithPlan attaches a fault-injection plan to the context so that
// layers which build their own controllers deep inside an API — the
// decision procedures construct runctl.New(ctx, …) internally — still
// participate in the caller's fault schedule. New picks the plan up
// automatically; an explicitly attached plan (Controller.WithFaults)
// takes precedence. WithPlan(ctx, nil) returns ctx unchanged.
func WithPlan(ctx context.Context, p *FaultPlan) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, planKey{}, p)
}

// PlanFromContext returns the fault plan attached by WithPlan, or nil.
func PlanFromContext(ctx context.Context) *FaultPlan {
	if ctx == nil {
		return nil
	}
	p, _ := ctx.Value(planKey{}).(*FaultPlan)
	return p
}

// ParseInject parses the CLI spelling of an Nth-op fault plan,
// "op:N:kind" — fail the Nth operation of the given kind with a
// transient, permanent or internal error. It is the shared
// implementation behind the -inject test-aid flag of ptxml, ptstatic
// and pttables. The empty string yields a nil plan.
func ParseInject(s string) (*FaultPlan, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("bad -inject %q: want op:N:kind", s)
	}
	op := Op(parts[0])
	valid := false
	for _, known := range Ops() {
		if op == known {
			valid = true
		}
	}
	if !valid {
		return nil, fmt.Errorf("bad -inject op %q", parts[0])
	}
	n, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil || n < 1 {
		return nil, fmt.Errorf("bad -inject count %q", parts[1])
	}
	var injected error
	switch parts[2] {
	case "transient":
		injected = Transient(errors.New("injected fault"))
	case "permanent":
		injected = errors.New("injected fault")
	case "internal":
		injected = &ErrInternal{Op: "inject", Panic: "injected fault"}
	default:
		return nil, fmt.Errorf("bad -inject kind %q: want transient, permanent or internal", parts[2])
	}
	return &FaultPlan{Op: op, N: n, Err: injected}, nil
}

// Controller binds a context to a set of limits and shares counters
// across the goroutines of one run. A nil *Controller is valid and
// imposes no limits.
type Controller struct {
	ctx    context.Context
	done   <-chan struct{} // ctx.Done(), cached: a receive takes no lock
	limits Limits
	faults *FaultPlan

	nodes   atomic.Int64
	queries atomic.Int64
}

// New builds a controller for one run. ctx carries cancellation and the
// wall-clock deadline (see Limits.WithTimeout); a fault plan attached
// with WithPlan is adopted automatically (overridable via WithFaults).
func New(ctx context.Context, limits Limits) *Controller {
	c := &Controller{ctx: ctx, limits: limits, faults: PlanFromContext(ctx)}
	if ctx != nil {
		c.done = ctx.Done()
	}
	return c
}

// WithFaults attaches a fault-injection plan and returns the receiver.
// A nil plan is a no-op, so an explicit per-call plan always wins over a
// context-carried one but never erases it.
func (c *Controller) WithFaults(p *FaultPlan) *Controller {
	if c != nil && p != nil {
		c.faults = p
	}
	return c
}

// Canceled returns a typed *ErrCanceled when the run's context is done.
// It polls the context's Done channel, cached at New, with a
// non-blocking receive, so a live run pays no lock and no allocation.
// A context that is never canceled has a nil Done channel, which the
// poll never receives from.
func (c *Controller) Canceled() error {
	if c == nil {
		return nil
	}
	select {
	case <-c.done:
		return &ErrCanceled{Cause: c.ctx.Err()}
	default:
		return nil
	}
}

// Tick is the cancellation probe of tight inner loops. It is the same
// poll as Canceled, so a canceled run stops at its next tick.
func (c *Controller) Tick() error { return c.Canceled() }

// AddNodes charges n generated nodes against the node budget.
func (c *Controller) AddNodes(n int) error {
	if c == nil {
		return nil
	}
	if err := c.faults.check(OpNode); err != nil {
		return err
	}
	if got := c.nodes.Add(int64(n)); c.limits.MaxNodes > 0 && got > int64(c.limits.MaxNodes) {
		return &ErrBudget{Kind: BudgetNodes, Limit: c.limits.MaxNodes, Observed: int(got)}
	}
	return nil
}

// Depth checks the tree-depth budget for a node at the given depth
// (root = 1).
func (c *Controller) Depth(d int) error {
	if c == nil {
		return nil
	}
	if c.limits.MaxDepth > 0 && d > c.limits.MaxDepth {
		return &ErrBudget{Kind: BudgetDepth, Limit: c.limits.MaxDepth, Observed: d}
	}
	return nil
}

// Query charges one rule-query evaluation: it checks cancellation, the
// fault plan and the query budget.
func (c *Controller) Query() error {
	if c == nil {
		return nil
	}
	if err := c.Canceled(); err != nil {
		return err
	}
	if err := c.faults.check(OpQuery); err != nil {
		return err
	}
	if got := c.queries.Add(1); c.limits.MaxQueries > 0 && got > int64(c.limits.MaxQueries) {
		return &ErrBudget{Kind: BudgetQueries, Limit: c.limits.MaxQueries, Observed: int(got)}
	}
	return nil
}

// Fault checks only the fault-injection plan for one operation of the
// given kind; layers that have their own budget accounting (or none)
// use it to participate in a run's fault schedule.
func (c *Controller) Fault(op Op) error {
	if c == nil {
		return nil
	}
	return c.faults.check(op)
}

// FixpointIter checks cancellation and the iteration budget at the top
// of the iter-th pass (1-based) of an inflationary fixpoint loop.
func (c *Controller) FixpointIter(iter int) error {
	if c == nil {
		return nil
	}
	if err := c.Canceled(); err != nil {
		return err
	}
	if c.limits.MaxFixpointIters > 0 && iter > c.limits.MaxFixpointIters {
		return &ErrBudget{Kind: BudgetFixpoint, Limit: c.limits.MaxFixpointIters, Observed: iter}
	}
	return nil
}
