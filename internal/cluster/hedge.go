// Hedged failover for idempotent reads. A publish (deduped by run key
// at every layer) and a watch CONNECT are safe to issue twice, so the
// coordinator fires one delayed second attempt at the next
// preference-list member when the primary dawdles: first success wins,
// the loser is canceled. Mutations never come through here — a
// duplicated mutation would race for sequence numbers on two nodes.
package cluster

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"ptx/internal/runctl"
	"ptx/internal/serve"
)

// errDraining marks a member call answered by a draining node: a
// routing fact, not a network failure (see judge).
var errDraining = errors.New("cluster: member draining")

// hedgeAfter resolves the hedge delay for a request whose budget runs
// out at budgetDeadline: configured value, or a quarter of the
// remaining budget clamped to [20ms, 2s]. Negative config disables
// hedging (returns -1).
func (c *Coordinator) hedgeAfter(budgetDeadline time.Time) time.Duration {
	if c.cfg.HedgeDelay > 0 {
		return c.cfg.HedgeDelay
	}
	if c.cfg.HedgeDelay < 0 {
		return -1
	}
	d := time.Until(budgetDeadline) / 4
	if d < 20*time.Millisecond {
		d = 20 * time.Millisecond
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// judge applies the breaker evidence rule to one member call made
// under ctx. A draining reply proves the network fine, so the breaker
// hears a success, but the member's keys belong to its successors now,
// so it is marked down. Any other failure while ctx is live is evidence
// on both counts; a failure after ctx died is the budget's, and blames
// nobody.
func (c *Coordinator) judge(ctx context.Context, id string, err error) {
	if errors.Is(err, errDraining) {
		c.breakers.Observe(ctx, id, nil)
		c.markDown(id)
		return
	}
	c.breakers.Observe(ctx, id, err)
	if err != nil && ctx.Err() == nil {
		c.markDown(id)
	}
}

// race runs one idempotent call along its preference list: the key's
// owner first, then ring successors. Members whose circuit breaker is
// open are skipped — a request's deadline budget is too precious to
// spend re-proving a known-bad peer. A failed attempt is judged (a
// transport failure marks the node down and feeds its breaker) and the
// next member is tried once nothing is in flight; the NEXT attempt
// carries the bumped epoch, which is exactly the authority a successor
// needs to overwrite the dead node's checkpoints. While an attempt is
// in flight, one hedged attempt may fire at the next member after the
// hedge delay (negative: never).
//
// Every attempt runs under its own context. The first success wins: it
// is returned with its context's cancel, which the caller calls once
// done with the value. Every other attempt is canceled and its late
// result still judged; a late success among them is handed to release
// (nil: nothing to release).
// attempts counts the winner and the failures before it; hedged reports
// whether the hedged attempt won. When no member answers, race returns
// ErrNoReady, or a canceled error if ctx died first.
func race[T any](c *Coordinator, ctx context.Context, prefs []MemberStatus, hedge time.Duration,
	try func(context.Context, MemberStatus) (T, error), release func(T)) (won T, cancel context.CancelFunc, attempts int, hedged bool, err error) {
	type result struct {
		m      MemberStatus
		idx    int
		ctx    context.Context // the attempt's own
		v      T
		err    error
		hedged bool
	}
	results := make(chan result, len(prefs))
	var cancels []context.CancelFunc // index = launch order
	next, inflight, fails := 0, 0, 0
	launch := func(hedged bool) bool {
		for next < len(prefs) {
			m := prefs[next]
			next++
			if !c.breakers.Allow(m.ID) {
				continue
			}
			inflight++
			if hedged {
				c.hedges.Add(1)
			}
			actx, cancel := context.WithCancel(ctx)
			idx := len(cancels)
			cancels = append(cancels, cancel)
			go func() {
				v, err := try(actx, m)
				results <- result{m: m, idx: idx, ctx: actx, v: v, err: err, hedged: hedged}
			}()
			return true
		}
		return false
	}
	// abandon cancels every attempt but keep (-1: none). The late
	// results of those still in flight are judged under their own,
	// now canceled, contexts: a late failure blames nobody but hands
	// back the half-open probe slot its Allow may hold. A late success
	// is handed to release.
	abandon := func(keep int) {
		for i, cancel := range cancels {
			if i != keep {
				cancel()
			}
		}
		if inflight == 0 {
			return
		}
		go func(n int) {
			for ; n > 0; n-- {
				r := <-results
				c.judge(r.ctx, r.m.ID, r.err)
				if r.err == nil && release != nil {
					release(r.v)
				}
			}
		}(inflight)
	}
	if !launch(false) {
		c.noReady.Add(1)
		return won, nil, 0, false, ErrNoReady
	}
	var hedgeC <-chan time.Time
	if hedge >= 0 {
		t := time.NewTimer(hedge)
		defer t.Stop()
		hedgeC = t.C
	}
	for inflight > 0 {
		select {
		case <-hedgeC:
			// One hedge per request: a storm of speculative retries is
			// its own outage.
			hedgeC = nil
			launch(true)
		case r := <-results:
			inflight--
			// No attempt is canceled before its result lands here, so
			// its context died only if ctx did.
			c.judge(ctx, r.m.ID, r.err)
			if r.err == nil {
				if r.hedged {
					c.hedgeWins.Add(1)
				}
				abandon(r.idx)
				return r.v, cancels[r.idx], fails + 1, r.hedged, nil
			}
			cancels[r.idx]()
			if ctx.Err() != nil {
				// The BUDGET died, not the node: the request outlived
				// its deadline.
				abandon(-1)
				return won, nil, fails, false, &runctl.ErrCanceled{Cause: context.DeadlineExceeded}
			}
			fails++
			c.failovers.Add(1)
			if inflight == 0 {
				launch(false)
			}
		case <-ctx.Done():
			abandon(-1)
			return won, nil, fails, false, &runctl.ErrCanceled{Cause: context.DeadlineExceeded}
		}
	}
	c.noReady.Add(1)
	return won, nil, fails, false, ErrNoReady
}

// stampAttempts marks a relayed answer with how many members it took
// and whether it needed a failover or the hedge.
func stampAttempts(h http.Header, attempts int, hedged bool) {
	if hedged {
		h.Set("X-Ptcoord-Hedged", "true")
	}
	if attempts > 1 {
		h.Set("X-Ptcoord-Failover", "true")
	}
	h.Set("X-Ptcoord-Attempts", strconv.Itoa(attempts))
}

// forward routes one publish body through race and returns the winning
// member's buffered answer. Any real response, success or typed error,
// is returned verbatim: the single-node error schema survives the
// cluster tier untouched.
func (c *Coordinator) forward(ctx context.Context, budgetDeadline time.Time, body []byte, runKey string) upstream {
	spec, db, _ := routingPair(body)
	prefs := c.preference(spec + "\x00" + db)
	if len(prefs) == 0 {
		c.noReady.Add(1)
		return buffered(ErrNoReady)
	}
	c.routed.Add(1)
	if c.cfg.Replicas > 0 && c.cfg.Replicas < len(prefs) {
		prefs = prefs[:c.cfg.Replicas]
	}
	hdr := http.Header{serve.HeaderRunKey: {runKey}}
	up, cancel, attempts, hedged, err := race(c, ctx, prefs, c.hedgeAfter(budgetDeadline),
		func(actx context.Context, m MemberStatus) (upstream, error) {
			return c.attempt(actx, m, "/publish", body, budgetDeadline, hdr)
		}, nil)
	if err != nil {
		return buffered(err)
	}
	cancel()
	stampAttempts(up.header, attempts, hedged)
	return up
}
