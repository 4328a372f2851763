// Live views under mutation: POST /mutate applies a delta to a
// registered database and incrementally repairs every live view over
// it; GET /watch exposes the resulting change feed as a long-poll or an
// SSE stream. The coherence contract is before-or-after, never torn:
// publishes resolve an immutable (instance, memo) version (a commit
// derives the next, see Registry.MutateDB), each live view reads those
// same versions and is reconciled to its pair's next one under its
// database's writer lock, and watchers only see committed reports.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ptx/internal/incr"
	"ptx/internal/pt"
	"ptx/internal/relation"
	"ptx/internal/runctl"
)

// liveView pairs a (spec, db) with the incr.View maintaining its tree.
// The view holds no instance of its own: it is built over the pair's
// registry version and reconciled to each next one (repairViews), under
// the database's writer lock, so mutation order IS the version order
// watchers see.
type liveView struct {
	spec string
	db   string
	view *incr.View
}

// pairKey indexes the live views by (spec, db).
type pairKey struct{ spec, db string }

// liveView returns the live view for (spec, db), or nil. It never
// waits on a writer lock.
func (s *Server) liveView(spec, db string) *liveView {
	v, _ := s.views.Load(pairKey{spec, db})
	lv, _ := v.(*liveView)
	return lv
}

// mutateRequest is the wire schema of POST /mutate. Unknown fields are
// rejected, like /publish.
type mutateRequest struct {
	Spec string     `json:"spec"`
	DB   string     `json:"db"`
	Ops  []mutateOp `json:"ops"`
}

type mutateOp struct {
	Op    string   `json:"op"` // "insert" or "delete"
	Rel   string   `json:"rel"`
	Tuple []string `json:"tuple"`
}

// mutateResponse reports what one mutation did: the sequence number the
// delta committed at, how many cached (spec, db) pairs moved to the new
// instance version (PairsDropped), one repair report per live view over
// the database, and (when the request named replicas) how many of them
// confirmed the delta before the ack.
type mutateResponse struct {
	DB           string       `json:"db"`
	Seq          uint64       `json:"seq"`
	Delta        string       `json:"delta"`
	PairsDropped int          `json:"pairs_dropped"`
	Replicated   int          `json:"replicated,omitempty"`
	Views        []viewRepair `json:"views"`
}

type viewRepair struct {
	Spec   string       `json:"spec"`
	Report *incr.Report `json:"report,omitempty"`
	Error  string       `json:"error,omitempty"` // repair failed; the view self-heals on the next apply
}

// decodeDelta validates the wire ops into a relation.Delta (schema
// validation happens against the caller's spec in handleMutate).
func decodeDelta(ops []mutateOp) (*relation.Delta, error) {
	if len(ops) == 0 {
		return nil, Validationf("ops", "empty delta")
	}
	d := &relation.Delta{}
	for i, op := range ops {
		if op.Rel == "" {
			return nil, Validationf("ops", "op %d: empty relation name", i)
		}
		switch op.Op {
		case "insert":
			d.Insert(op.Rel, op.Tuple...)
		case "delete":
			d.Delete(op.Rel, op.Tuple...)
		default:
			return nil, Validationf("ops", "op %d: unknown op %q (want insert or delete)", i, op.Op)
		}
	}
	return d, nil
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	var req mutateRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.reject(w, err)
		return
	}
	if req.Spec == "" {
		s.reject(w, Validationf("spec", "missing"))
		return
	}
	if req.DB == "" {
		s.reject(w, Validationf("db", "missing"))
		return
	}
	d, err := decodeDelta(req.Ops)
	if err != nil {
		s.reject(w, err)
		return
	}
	// The caller's spec anchors schema validation, so a bad delta is a
	// typed 400 naming the violation before anything is touched.
	tr, err := s.reg.Spec(req.Spec)
	if err != nil {
		s.reject(w, err)
		return
	}
	if verr := d.Validate(tr.Schema); verr != nil {
		s.reject(w, Validationf("ops", "%v", verr))
		return
	}
	// Cluster headers: the ownership epoch fencing this write (0 when
	// absent — standalone servers bypass fencing) and the successor set
	// the delta must reach before the ack.
	epoch, err := parseEpoch(r.Header)
	if err != nil {
		s.reject(w, err)
		return
	}
	replicas, err := parseReplicas(r.Header.Get(HeaderReplicas))
	if err != nil {
		s.reject(w, err)
		return
	}
	// Deadline propagation: the replication fan-out below must finish
	// inside the budget the coordinator forwarded, not inside the
	// replication client's own flat timeout.
	repCtx := r.Context()
	if budget, ok, derr := ParseDeadline(r.Header); derr != nil {
		s.reject(w, derr)
		return
	} else if ok {
		var cancel context.CancelFunc
		repCtx, cancel = context.WithTimeout(repCtx, budget)
		defer cancel()
	}

	db, err := s.reg.db(req.DB)
	if err != nil {
		s.reject(w, err)
		return
	}
	resp, err := s.mutate(db, d, epoch)
	if err != nil {
		s.reject(w, err)
		return
	}
	// Synchronous replication happens AFTER the local commit released
	// the writer lock (holding a lock across peer HTTP would let two owners
	// deadlock each other) and BEFORE the ack: when the client hears 200
	// the delta is durable here and on EVERY named successor. A replica
	// that fails to confirm withholds the ack entirely — acknowledging a
	// solo commit would let this node die as the record's only holder
	// while a successor reuses its sequence number, which is exactly the
	// silent loss the protocol exists to prevent. The commit itself
	// stands (at-least-once); the client's retry re-replicates it.
	var failed []string
	if len(replicas) > 0 {
		resp.Replicated, failed = s.replicateOut(repCtx, db, resp.Seq, replicas)
		if len(failed) > 0 {
			w.Header().Set(HeaderReplicaFailed, strings.Join(failed, ","))
			s.reject(w, runctl.Transient(fmt.Errorf(
				"serve: delta %s/%d is durable locally but unconfirmed on %d of %d replicas; retry to re-replicate",
				req.DB, resp.Seq, len(failed), len(replicas))))
			return
		}
	}
	// Crash point 3: the delta is durable and applied, the client has
	// not heard yet. A crash here is the at-least-once window — the
	// client retries, the set-semantics delta makes the retry a no-op.
	if err := s.cfg.MutateFaults.Check(runctl.OpMutateAck); err != nil {
		s.reject(w, err)
		return
	}
	s.mutated.Add(1)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// mutate is the mutation path, serialized per database: db's writer
// lock makes (registry commit, view repairs) atomic with respect to view
// creation, so a view can never be born pre-delta yet miss the repair
// pass. The registry commit inside is durable-first — when it returns
// nil the delta is already fsynced to the WAL (if one is attached).
func (s *Server) mutate(db *database, d *relation.Delta, epoch uint64) (*mutateResponse, error) {
	db.w.Lock()
	defer db.w.Unlock()
	moved, seq, err := db.mutate(d, epoch)
	if err != nil {
		return nil, err
	}
	return &mutateResponse{DB: db.name, Seq: seq, Delta: d.String(), PairsDropped: moved, Views: s.repairViews(db.name)}, nil
}

// repairViews reconciles every live view over db to its pair's current
// version and returns the per-view reports. It serves a commit, after
// which the view's relations differ from the version's only where the
// delta touched them, and a supersede, after which the pair re-resolves
// from the reconciled log and the view catches up in one report. A pair
// whose schema rejected the delta kept its version, so its view's
// report is empty. Caller holds db's writer lock.
func (s *Server) repairViews(db string) []viewRepair {
	views := []viewRepair{}
	s.views.Range(func(_, v any) bool {
		lv := v.(*liveView)
		if lv.db != db {
			return true
		}
		vr := viewRepair{Spec: lv.spec}
		_, cur, _, err := s.reg.Pair(lv.spec, db)
		if err == nil {
			vr.Report, err = lv.view.Reconcile(s.baseCtx, cur)
		}
		if err != nil {
			s.failed.Add(1)
			vr.Error = err.Error()
		} else {
			s.repaired.Add(1)
		}
		views = append(views, vr)
		return true
	})
	return views
}

// liveViewFor returns the live view for (spec, db), creating it on
// first use over the registry's CURRENT pair version. Creation runs
// under db's writer lock: a concurrent mutation either precedes it (the
// version already carries the delta) or follows it (the repair pass
// covers this view) — no window where a fresh view misses a delta.
func (s *Server) liveViewFor(spec, db string) (*liveView, error) {
	d, err := s.reg.db(db)
	if err != nil {
		return nil, err
	}
	d.w.Lock()
	defer d.w.Unlock()
	if lv := s.liveView(spec, db); lv != nil {
		return lv, nil
	}
	tr, cur, err := s.reg.version(spec, db)
	if err != nil {
		return nil, err
	}
	v, err := incr.NewView(s.baseCtx, tr, cur.inst, incr.Options{
		Run: pt.Options{MaxNodes: defaultMaxNodes},
	})
	if err != nil {
		return nil, err
	}
	lv := &liveView{spec: spec, db: db, view: v}
	s.views.Store(pairKey{spec, db}, lv)
	return lv, nil
}

// watchResponse is the long-poll reply: the view's current version, the
// missed-history flag (resync with a fresh /publish when true), and the
// change reports after the client's cursor.
type watchResponse struct {
	Spec    string         `json:"spec"`
	DB      string         `json:"db"`
	Version uint64         `json:"version"`
	Resync  bool           `json:"resync,omitempty"`
	Changes []*incr.Report `json:"changes"`
}

// handleWatch serves the change feed for one (spec, db) live view.
//
//	GET /watch?spec=S&db=D&after=N&wait_ms=M      → long-poll JSON
//	GET /watch?spec=S&db=D&after=N  (Accept: text/event-stream) → SSE
//
// after is the client's version cursor (0 = everything buffered);
// wait_ms long-polls until a change lands past the cursor, the wait
// clamp expires, or the server drains. The SSE stream emits one
// `change` event per repair report (data: the report JSON) and a
// `resync` event when the client's cursor fell off the history ring.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	spec, db := q.Get("spec"), q.Get("db")
	if spec == "" || db == "" {
		s.reject(w, Validationf("watch", "spec and db query parameters are required"))
		return
	}
	after := uint64(0)
	if a := q.Get("after"); a != "" {
		n, err := strconv.ParseUint(a, 10, 64)
		if err != nil {
			s.reject(w, Validationf("after", "malformed cursor %q", a))
			return
		}
		after = n
	}
	var wait time.Duration
	if ms := q.Get("wait_ms"); ms != "" {
		n, err := strconv.ParseInt(ms, 10, 64)
		if err != nil || n < 0 {
			s.reject(w, Validationf("wait_ms", "malformed wait %q", ms))
			return
		}
		wait = min(time.Duration(n)*time.Millisecond, s.cfg.MaxTimeout)
	}
	lv, err := s.liveViewFor(spec, db)
	if err != nil {
		s.reject(w, err)
		return
	}
	s.watched.Add(1)
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.watchSSE(w, r, lv, after)
		return
	}
	s.watchPoll(w, r, lv, after, wait)
}

// watchPoll is the long-poll arm: answer immediately when the cursor is
// behind, otherwise park on the view's notify channel until a change,
// the wait clamp, client disconnect, or server drain.
func (s *Server) watchPoll(w http.ResponseWriter, r *http.Request, lv *liveView, after uint64, wait time.Duration) {
	reports, notify, complete := lv.view.Changes(after)
	if len(reports) == 0 && complete && wait > 0 {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-notify:
			reports, _, complete = lv.view.Changes(after)
		case <-timer.C:
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			// Drain: answer with what we have so the poller regroups.
		}
	}
	if reports == nil {
		reports = []*incr.Report{}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(watchResponse{
		Spec: lv.spec, DB: lv.db,
		Version: lv.view.Version(),
		Resync:  !complete,
		Changes: reports,
	})
}

// watchSSE is the streaming arm: one `change` event per repair report,
// `resync` when the cursor fell off the ring, until the client goes
// away or the server drains.
func (s *Server) watchSSE(w http.ResponseWriter, r *http.Request, lv *liveView, after uint64) {
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, Validationf("watch", "streaming unsupported by this connection"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		reports, notify, complete := lv.view.Changes(after)
		if !complete {
			fmt.Fprintf(w, "event: resync\ndata: {\"version\":%d}\n\n", lv.view.Version())
			after = lv.view.Version()
			fl.Flush()
			continue
		}
		for _, rep := range reports {
			data, err := json.Marshal(rep)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: change\ndata: %s\n\n", data)
			after = rep.Version
		}
		if len(reports) > 0 {
			fl.Flush()
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			return
		}
	}
}
