package serve

import (
	"context"
	"sync"

	"ptx/internal/pt"
	"ptx/internal/relation"
	"ptx/internal/runctl"
)

// flightGroup deduplicates identical in-flight publish runs: while a
// (spec, db, options) run is executing, later arrivals for the same key
// wait for its result instead of repeating the work, so a thundering
// herd on one view costs one transformation. The shared value is the
// raw *pt.Result — serialization stays per-request (writers are
// read-only over the tree, and canonical-vs-XML rendering may differ
// between duplicates of one run) — plus, for eligible runs, one
// rendered document per output form (see Server.fill).
//
// The leader executes under the SERVER's lifecycle context, not its own
// request's, so one impatient client disconnecting cannot poison the
// result for the followers; each waiter still honors its own deadline
// while waiting.
type flightGroup struct {
	mu sync.Mutex
	m  map[flightKey]*flight
}

// flight is one execution. The leader's fn sets every field but done
// and docs before done is closed; after that they are read-only.
type flight struct {
	done     chan struct{} // closed when the leader finishes
	inst     *relation.Instance
	res      *pt.Result
	attempts int
	resumed  bool
	err      error

	docs [2]struct { // indexed by docForm
		once sync.Once
		doc  *document
	}
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[flightKey]*flight)}
}

// do runs fn for key, or waits for the in-flight execution of the same
// key, and returns the flight with its error. shared reports whether
// this caller was a follower. A follower whose ctx expires stops
// waiting with a nil flight and a typed *runctl.ErrCanceled; the
// leader's run is unaffected.
func (g *flightGroup) do(ctx context.Context, key flightKey, fn func(f *flight)) (f *flight, shared bool, err error) {
	g.mu.Lock()
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-f.done:
			return f, true, f.err
		case <-ctx.Done():
			return nil, true, &runctl.ErrCanceled{Cause: ctx.Err()}
		}
	}
	f = &flight{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	fn(f)
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(f.done)
	return f, false, f.err
}
