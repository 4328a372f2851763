package runctl

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestNilControllerIsUnlimited(t *testing.T) {
	var c *Controller
	if err := c.Canceled(); err != nil {
		t.Fatalf("nil Canceled: %v", err)
	}
	if err := c.Tick(); err != nil {
		t.Fatalf("nil Tick: %v", err)
	}
	if err := c.AddNodes(1 << 30); err != nil {
		t.Fatalf("nil AddNodes: %v", err)
	}
	if err := c.Depth(1 << 30); err != nil {
		t.Fatalf("nil Depth: %v", err)
	}
	if err := c.Query(); err != nil {
		t.Fatalf("nil Query: %v", err)
	}
	if err := c.FixpointIter(1 << 30); err != nil {
		t.Fatalf("nil FixpointIter: %v", err)
	}
	var p *FaultPlan
	if p.Observed() != 0 || p.Check(OpQuery) != nil {
		t.Fatal("nil plan must observe nothing and inject nothing")
	}
}

func TestNodeBudget(t *testing.T) {
	c := New(context.Background(), Limits{MaxNodes: 10})
	if err := c.AddNodes(7); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	err := c.AddNodes(7)
	var be *ErrBudget
	if !errors.As(err, &be) {
		t.Fatalf("expected *ErrBudget, got %T: %v", err, err)
	}
	if be.Kind != BudgetNodes || be.Limit != 10 {
		t.Fatalf("wrong budget report: %+v", be)
	}
}

func TestDepthBudget(t *testing.T) {
	c := New(context.Background(), Limits{MaxDepth: 3})
	if err := c.Depth(3); err != nil {
		t.Fatalf("depth 3 within budget: %v", err)
	}
	err := c.Depth(4)
	var be *ErrBudget
	if !errors.As(err, &be) || be.Kind != BudgetDepth {
		t.Fatalf("expected depth budget error, got %v", err)
	}
}

func TestQueryBudgetAndCancellation(t *testing.T) {
	c := New(context.Background(), Limits{MaxQueries: 2})
	if err := c.Query(); err != nil {
		t.Fatal(err)
	}
	if err := c.Query(); err != nil {
		t.Fatal(err)
	}
	var be *ErrBudget
	if err := c.Query(); !errors.As(err, &be) || be.Kind != BudgetQueries {
		t.Fatalf("expected query budget error, got %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c2 := New(ctx, Limits{})
	err := c2.Query()
	var ce *ErrCanceled
	if !errors.As(err, &ce) {
		t.Fatalf("expected *ErrCanceled, got %T: %v", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ErrCanceled should unwrap to context.Canceled: %v", err)
	}
}

func TestDeadlineUnwrapsToDeadlineExceeded(t *testing.T) {
	l := Limits{Timeout: time.Millisecond}
	ctx, cancel := l.WithTimeout(context.Background())
	defer cancel()
	<-ctx.Done()
	err := New(ctx, l).Canceled()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected DeadlineExceeded in chain, got %v", err)
	}
}

func TestFaultPlanDeterministic(t *testing.T) {
	boom := errors.New("boom")
	p := &FaultPlan{Op: OpQuery, N: 3, Err: boom}
	c := New(context.Background(), Limits{}).WithFaults(p)
	for i := 1; i <= 5; i++ {
		err := c.Query()
		if i == 3 && !errors.Is(err, boom) {
			t.Fatalf("op %d: expected injected fault, got %v", i, err)
		}
		if i != 3 && err != nil {
			t.Fatalf("op %d: unexpected error %v", i, err)
		}
	}
	if got := p.Observed(); got != 5 {
		t.Fatalf("Observed() = %d, want 5", got)
	}
	// Node ops are not counted against a query plan.
	if err := c.AddNodes(1); err != nil {
		t.Fatalf("AddNodes hit a query fault plan: %v", err)
	}
	if got := p.Observed(); got != 5 {
		t.Fatalf("Observed() after node op = %d, want 5", got)
	}
}

func TestRecoverConvertsPanic(t *testing.T) {
	f := func() (err error) {
		defer Recover(&err, "runctl.test")
		panic("kaboom")
	}
	err := f()
	var ie *ErrInternal
	if !errors.As(err, &ie) {
		t.Fatalf("expected *ErrInternal, got %T: %v", err, err)
	}
	if ie.Op != "runctl.test" || ie.Panic != "kaboom" || len(ie.Stack) == 0 {
		t.Fatalf("incomplete internal error: %+v", ie)
	}
}

func TestTickEventuallySeesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := New(ctx, Limits{})
	var err error
	for i := 0; i < 1024 && err == nil; i++ {
		err = c.Tick()
	}
	var ce *ErrCanceled
	if !errors.As(err, &ce) {
		t.Fatalf("Tick never observed cancellation: %v", err)
	}
}

// TestCancelSeenAtNextTick: a cancellation is seen by the very next
// Tick and the very next Canceled, both with the typed *ErrCanceled
// carrying the context's error.
func TestCancelSeenAtNextTick(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := New(ctx, Limits{})
	if err := c.Tick(); err != nil {
		t.Fatalf("live Tick: %v", err)
	}
	if err := c.Canceled(); err != nil {
		t.Fatalf("live Canceled: %v", err)
	}
	cancel()
	for name, probe := range map[string]func() error{"Tick": c.Tick, "Canceled": c.Canceled} {
		var ce *ErrCanceled
		if err := probe(); !errors.As(err, &ce) || !errors.Is(ce.Cause, context.Canceled) {
			t.Errorf("%s after cancel: got %T %v, want *ErrCanceled wrapping context.Canceled", name, err, err)
		}
	}
}

// TestTickCanceledAllocs: on a live context the probes allocate
// nothing, whether or not the context can ever be canceled.
func TestTickCanceledAllocs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, c := range map[string]*Controller{
		"cancelable": New(ctx, Limits{}),
		"background": New(context.Background(), Limits{}),
	} {
		got := testing.AllocsPerRun(100, func() {
			if c.Tick() != nil || c.Canceled() != nil {
				t.Fatal("live context reported canceled")
			}
		})
		if got != 0 {
			t.Errorf("%s: Tick+Canceled allocate %.1f objects, want 0", name, got)
		}
	}
}

func TestTransientMarking(t *testing.T) {
	if Transient(nil) != nil {
		t.Fatal("Transient(nil) should be nil")
	}
	cause := errors.New("socket reset")
	err := Transient(cause)
	if !IsTransient(err) {
		t.Fatal("Transient-wrapped error not classified transient")
	}
	if !errors.Is(err, cause) {
		t.Fatal("Transient must unwrap to its cause")
	}
	if IsTransient(cause) {
		t.Fatal("plain error misclassified as transient")
	}
	if IsTransient(Transient(Transient(cause))) != true {
		t.Fatal("double wrapping should stay transient")
	}
}

// TestSeededPlanDeterministic pins the probabilistic mode: the same
// (seed, probs) produce the same fault schedule over the same op
// sequence, and a different seed produces a different one — the
// property chaos cases replay from.
func TestSeededPlanDeterministic(t *testing.T) {
	boom := errors.New("boom")
	schedule := func(seed int64) []int {
		p := SeededPlan(seed, boom, map[Op]float64{OpQuery: 0.2})
		var hits []int
		for i := 0; i < 200; i++ {
			if p.Check(OpQuery) != nil {
				hits = append(hits, i)
			}
		}
		return hits
	}
	a, b := schedule(42), schedule(42)
	if len(a) == 0 {
		t.Fatal("0.2 over 200 draws produced no faults; PRNG not wired")
	}
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			t.Fatalf("same seed, different schedules: %v vs %v", a, b)
		}
	}
	if c := schedule(43); len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical schedules")
		}
	}
}

// TestOpsComplete: Ops() is the registry CLIs validate -inject against;
// adding an Op without listing it there silently breaks the flag.
func TestOpsComplete(t *testing.T) {
	want := map[Op]bool{
		OpQuery: true, OpNode: true, OpEval: true, OpSerialize: true,
		OpWALAppend: true, OpWALSync: true, OpMutateAck: true,
		OpNetRequest: true,
	}
	got := Ops()
	if len(got) != len(want) {
		t.Fatalf("Ops() = %v, want the %d known kinds", got, len(want))
	}
	for _, op := range got {
		if !want[op] {
			t.Errorf("Ops() lists unknown kind %q", op)
		}
	}
}
