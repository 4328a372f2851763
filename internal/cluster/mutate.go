package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"time"

	"ptx/internal/runctl"
	"ptx/internal/serve"
)

// Cluster mutations and watches.
//
// Deltas are durable and replicated. Mutations route by DATABASE (not
// the (spec, db) pair publishes use) to the db's ring owner, which is
// the single sequence-number authority for that database. The
// coordinator stamps each forwarded mutation with the cluster epoch
// (fencing zombie owners at the worker's registry) and with the
// database's up successors; the owner appends+fsyncs the delta to its
// WAL, applies it, then synchronously replicates it to every named
// successor BEFORE acknowledging. When the client hears 200 the delta
// is durable on the owner and live on every reachable node.
//
// Failover therefore serves POST-delta bytes: if the owner dies, it is
// marked down (bumping the epoch, which re-homes the database), the
// client gets a transient retryable error, and the retry lands on a
// successor that already holds the replicated log — see
// TestClusterMutateOwnerLossServesPostDelta. A successor that somehow
// missed a record answers the replication protocol's gap reply and is
// resent the tail; a rejoining node is caught up under the
// coordinator's write barrier before it can own mutations again.
//
// Watches are read-only and fail over freely — replication repairs the
// live views on every node, so a watcher re-parked on a successor sees
// the same change stream. A successor's view has its own version
// numbering, and the worker-side protocol absorbs the cursor jump: a
// long-poll cursor beyond the new view's history returns
// complete=false, and SSE replies with a resync event.

// ErrOwnerDown is returned for a mutation whose owning node could not
// be reached. Transient and hence retryable: the failed attempt marked
// the owner down, so a retry routes to the database's new owner — which
// holds the replicated log and serves post-delta bytes.
var ErrOwnerDown = runctl.Transient(errors.New("cluster: mutation owner unreachable; retry routes to its successor"))

// replicasHeader renders the successor set (everything after the owner
// in the preference list, capped by Replicas-1 when Replicas bounds the
// write fan-out) in the id=url,... wire form.
func (c *Coordinator) replicasHeader(prefs []MemberStatus) string {
	reps := prefs[1:]
	if c.cfg.Replicas > 0 && len(reps) > c.cfg.Replicas-1 {
		reps = reps[:c.cfg.Replicas-1]
	}
	parts := make([]string, len(reps))
	for i, m := range reps {
		parts[i] = m.ID + "=" + m.URL
	}
	return strings.Join(parts, ",")
}

func (c *Coordinator) handleMutate(w http.ResponseWriter, r *http.Request) {
	// The budget is the propagated header's, else ForwardBudget. The
	// coordinator waits budget+grace; the owner hears the raw budget.
	body, budget, ok := c.readPost(w, r)
	if !ok {
		return
	}
	if budget == 0 {
		budget = c.cfg.ForwardBudget
	}
	budgetDeadline := time.Now().Add(budget)
	ctx, cancel := context.WithDeadline(c.baseCtx, budgetDeadline.Add(c.cfg.DeadlineGrace))
	defer cancel()

	// Mutations hold the membership read barrier: a join's catch-up
	// sync (write side) never interleaves with a commit, so a rejoined
	// node's log is complete before it can own a database. The
	// acquisition itself is deadline-bounded — a stalled catch-up must
	// stall this mutation only as long as its budget allows.
	if !c.rlockWithin(ctx) {
		serve.WriteError(w, &runctl.ErrCanceled{Cause: context.DeadlineExceeded})
		return
	}
	defer c.writeMu.RUnlock()
	_, db, _ := routingPair(body)
	prefs := c.mutatePreference(db)
	if len(prefs) == 0 {
		c.noReady.Add(1)
		serve.WriteError(w, ErrNoReady)
		return
	}
	c.mutations.Add(1)

	// Owner only — never replay a possibly-landed delta on a successor
	// ourselves; the owner's synchronous replication is what moves the
	// delta, and the client's retry (post epoch bump) is what moves the
	// ownership. The owner's breaker is FED here but never consulted to
	// skip: there is no second node a mutation may safely try.
	owner := prefs[0]
	var hdr http.Header
	if reps := c.replicasHeader(prefs); reps != "" {
		hdr = http.Header{serve.HeaderReplicas: {reps}}
	}
	up, err := c.attempt(ctx, owner, "/mutate", body, budgetDeadline, hdr)
	c.judge(ctx, owner.ID, err)
	if err != nil {
		if ctx.Err() != nil && !errors.Is(err, errDraining) {
			// The budget died, not the owner: the delta's fate is
			// unknown, so fail typed and let the client decide.
			serve.WriteError(w, &runctl.ErrCanceled{Cause: context.DeadlineExceeded})
			return
		}
		// The owner is dead, or draining and never applied the delta;
		// either way its successor owns the database now.
		serve.WriteError(w, ErrOwnerDown)
		return
	}
	// A replica that failed to confirm is suspect: mark it down so the
	// prober re-admits it only through the catch-up sync.
	if failed := up.header.Get(serve.HeaderReplicaFailed); failed != "" {
		for _, id := range strings.Split(failed, ",") {
			c.markDown(id)
		}
	}
	// A 200 means the delta is durable on the owner AND confirmed on
	// every named successor: its sequence number becomes the database's
	// acked high-water mark, the convergence bar for rejoining nodes.
	if up.status == http.StatusOK {
		var ack struct {
			Seq uint64 `json:"seq"`
		}
		if json.Unmarshal(up.body, &ack) == nil && ack.Seq > 0 {
			c.recordAck(db, ack.Seq)
		}
	}
	copyProxyHeaders(w.Header(), up.header)
	stampAttempts(w.Header(), 1, false)
	w.WriteHeader(up.status)
	_, _ = w.Write(up.body)
}

func (c *Coordinator) handleWatch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	prefs := c.preference(q.Get("spec") + "\x00" + q.Get("db"))
	if len(prefs) == 0 {
		c.noReady.Add(1)
		serve.WriteError(w, ErrNoReady)
		return
	}
	c.watches.Add(1)

	// The upstream request dies with the watcher's connection OR the
	// coordinator's drain, whichever comes first — a drain must release
	// proxied long-polls and SSE streams just like the worker releases
	// its own parked watchers.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(c.baseCtx, cancel)
	defer stop()

	if c.cfg.Replicas > 0 && c.cfg.Replicas < len(prefs) {
		prefs = prefs[:c.cfg.Replicas]
	}
	// The CONNECT phase races (idempotent until the first byte is
	// relayed); the stream itself does not. A draining node is reported
	// as errDraining so the race moves on; any other 503 is a real
	// answer the watcher should see.
	connect := func(cctx context.Context, m MemberStatus) (*http.Response, error) {
		req, err := http.NewRequestWithContext(cctx, http.MethodGet, m.URL+"/watch?"+r.URL.RawQuery, nil)
		if err != nil {
			return nil, err
		}
		if a := r.Header.Get("Accept"); a != "" {
			req.Header.Set("Accept", a)
		}
		resp, err := c.cfg.Client.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			if errorKind(b) == serve.KindDraining {
				return nil, errDraining
			}
			resp.Body = io.NopCloser(bytes.NewReader(b))
			resp.ContentLength = int64(len(b))
		}
		return resp, nil
	}
	resp, done, attempts, hedged, err := race(c, ctx, prefs, c.hedgeAfter(time.Now().Add(c.cfg.ForwardBudget)),
		connect, func(resp *http.Response) { resp.Body.Close() })
	if err != nil {
		if errors.Is(err, ErrNoReady) {
			serve.WriteError(w, err)
		}
		// Otherwise the watcher hung up or the coordinator is
		// draining; the nodes did nothing wrong.
		return
	}
	defer done()
	streamReply(w, resp, attempts, hedged)
}

// streamReply proxies an upstream response without buffering, flushing
// after every chunk so proxied SSE events reach the watcher as they
// happen rather than when the stream ends.
func streamReply(w http.ResponseWriter, resp *http.Response, attempts int, hedged bool) {
	defer resp.Body.Close()
	copyProxyHeaders(w.Header(), resp.Header)
	stampAttempts(w.Header(), attempts, hedged)
	w.WriteHeader(resp.StatusCode)
	fl, _ := w.(http.Flusher)
	if fl != nil {
		// Push the headers out now: an SSE watcher must see the stream
		// open before the first event, not when the first event lands.
		fl.Flush()
	}
	buf := make([]byte, 4<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// copyProxyHeaders forwards upstream headers minus the hop-by-hop and
// length-bearing ones the proxy must own — including the integrity
// trailer machinery, which is a per-hop contract: the coordinator
// verified the worker's sum; advertising it onward would promise a
// trailer this hop never sends.
func copyProxyHeaders(dst, src http.Header) {
	for k, vs := range src {
		switch k {
		case "Content-Length", "Connection", "Transfer-Encoding", "Date",
			"Trailer", serve.HeaderBodySum, serve.HeaderWantSum:
		default:
			dst[k] = vs
		}
	}
}
