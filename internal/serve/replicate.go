// Synchronous delta replication between nodes: POST /replicate accepts
// sequenced records from a database's owner, GET /deltalog exposes the
// local mutation log for catch-up, and POST /sync runs a bidirectional
// catch-up against a peer (pull its tail, push ours). The protocol is
// built on two properties that make retries boring: records carry their
// per-database sequence numbers, so a receiver can tell duplicates
// (skip) from gaps (answer with its high-water mark and let the sender
// resend the tail); and deltas are set-membership assignments, so
// re-applying an overlap is a no-op.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"ptx/internal/relation"
)

const (
	// HeaderReplicas names the successor set a mutation must reach
	// before its ack: "id=url,id2=url2". The coordinator stamps it when
	// forwarding /mutate to a database's owner.
	HeaderReplicas = "X-Ptx-Replicas"
	// HeaderReplicaFailed lists (comma-joined) the replica ids that did
	// NOT confirm the delta before the ack. The coordinator reads it to
	// mark suspect members down.
	HeaderReplicaFailed = "X-Ptserve-Replica-Failed"
)

// replica is one parsed HeaderReplicas entry.
type replica struct {
	id  string
	url string
}

// parseReplicas decodes "id=url,id2=url2" (empty → none).
func parseReplicas(h string) ([]replica, error) {
	if h == "" {
		return nil, nil
	}
	parts := strings.Split(h, ",")
	out := make([]replica, 0, len(parts))
	for _, p := range parts {
		id, url, ok := strings.Cut(strings.TrimSpace(p), "=")
		if !ok || id == "" || url == "" {
			return nil, Validationf("replicas", "malformed %s entry %q (want id=url)", HeaderReplicas, p)
		}
		out = append(out, replica{id: id, url: url})
	}
	return out, nil
}

// wireRecord is one sequenced delta on the wire, reusing the /mutate op
// schema for the payload.
type wireRecord struct {
	Seq   uint64     `json:"seq"`
	Epoch uint64     `json:"epoch"`
	Ops   []mutateOp `json:"ops"`
}

type replicateRequest struct {
	DB      string       `json:"db"`
	Records []wireRecord `json:"records"`
}

// replicateResponse reports the receiver's state after the batch. Gap
// means the batch started past the receiver's high-water mark Have and
// nothing past the gap was applied — the sender must resend from
// Have+1. A gap is a 200, not an error: it is the protocol working.
type replicateResponse struct {
	DB      string `json:"db"`
	Applied int    `json:"applied"`
	Have    uint64 `json:"have"`
	Gap     bool   `json:"gap,omitempty"`
}

// deltaLogResponse is the GET /deltalog reply: the database's current
// sequence and epoch high-water marks plus the records after `from`.
type deltaLogResponse struct {
	DB      string       `json:"db"`
	Seq     uint64       `json:"seq"`
	Epoch   uint64       `json:"epoch"`
	Records []wireRecord `json:"records"`
}

// syncRequest asks this node to catch up bidirectionally with a peer's
// copy of db: pull the peer's tail, then push back anything the peer
// lacks.
type syncRequest struct {
	DB   string `json:"db"`
	Peer string `json:"peer"` // base URL
}

type syncResponse struct {
	DB     string `json:"db"`
	Pulled int    `json:"pulled"`
	Pushed int    `json:"pushed"`
	Seq    uint64 `json:"seq"`
}

// encodeOps renders a delta in the /mutate wire op schema.
func encodeOps(d *relation.Delta) []mutateOp {
	ops := make([]mutateOp, len(d.Ops))
	for i, op := range d.Ops {
		kind := "delete"
		if op.Insert {
			kind = "insert"
		}
		tuple := make([]string, len(op.Tuple))
		for j, v := range op.Tuple {
			tuple[j] = string(v)
		}
		ops[i] = mutateOp{Op: kind, Rel: op.Rel, Tuple: tuple}
	}
	return ops
}

func encodeRecords(recs []DeltaRecord) []wireRecord {
	out := make([]wireRecord, len(recs))
	for i, rec := range recs {
		out[i] = wireRecord{Seq: rec.Seq, Epoch: rec.Epoch, Ops: encodeOps(rec.Delta)}
	}
	return out
}

// applyRecords commits a batch of replicated records under db's writer
// lock: duplicates are skipped, the contiguous tail is committed
// (durably first when a WAL is attached) with live views reconciled to
// their pairs' versions after each record, a supersede included (see
// database.apply), and a gap stops the batch with the current
// high-water mark for the sender to resume from.
func (s *Server) applyRecords(db *database, recs []wireRecord) (applied int, have uint64, gap bool, err error) {
	db.w.Lock()
	defer db.w.Unlock()
	for _, wr := range recs {
		d, derr := decodeDelta(wr.Ops)
		if derr != nil {
			return applied, db.seq, false, derr
		}
		_, ok, aerr := db.apply(DeltaRecord{Seq: wr.Seq, Epoch: wr.Epoch, Delta: d})
		if aerr != nil {
			var ge *GapError
			if errors.As(aerr, &ge) {
				return applied, ge.Have, true, nil
			}
			return applied, db.seq, false, aerr
		}
		if ok {
			s.repairViews(db.name)
			s.replicated.Add(1)
			applied++
		}
	}
	return applied, db.seq, false, nil
}

// handleReplicate is the receiver side of synchronous replication.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	var req replicateRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.reject(w, err)
		return
	}
	if req.DB == "" {
		s.reject(w, Validationf("db", "missing"))
		return
	}
	db, err := s.reg.db(req.DB)
	if err != nil {
		s.reject(w, err)
		return
	}
	applied, have, gap, err := s.applyRecords(db, req.Records)
	if err != nil {
		s.reject(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(replicateResponse{DB: req.DB, Applied: applied, Have: have, Gap: gap})
}

// handleDeltaLog serves the local mutation log for catch-up:
// GET /deltalog?db=D&from=N returns the records with seq > N.
func (s *Server) handleDeltaLog(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if q.Get("db") == "" {
		s.reject(w, Validationf("db", "missing"))
		return
	}
	db, err := s.reg.db(q.Get("db"))
	if err != nil {
		s.reject(w, err)
		return
	}
	from := uint64(0)
	if f := q.Get("from"); f != "" {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			s.reject(w, Validationf("from", "malformed cursor %q", f))
			return
		}
		from = n
	}
	resp := deltaLogResponse{
		DB:      db.name,
		Seq:     db.Seq(),
		Epoch:   db.EpochHighWater(),
		Records: encodeRecords(db.RecordsSince(from)),
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// handleSync catches this node up with a peer bidirectionally: pull the
// peer's records past our high-water mark and commit them locally, then
// push back our tail past the peer's mark. After a successful sync both
// copies hold the same contiguous record prefix — the invariant the
// coordinator needs before routing mutations at a rejoined node.
func (s *Server) handleSync(w http.ResponseWriter, r *http.Request) {
	var req syncRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.reject(w, err)
		return
	}
	if req.DB == "" || req.Peer == "" {
		s.reject(w, Validationf("sync", "db and peer are required"))
		return
	}
	db, err := s.reg.db(req.DB)
	if err != nil {
		s.reject(w, err)
		return
	}
	pulled, pushed, err := s.syncWith(r.Context(), db, req.Peer)
	if err != nil {
		s.reject(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(syncResponse{
		DB: req.DB, Pulled: pulled, Pushed: pushed, Seq: db.Seq(),
	})
}

// syncWith runs one pull+push round against peer. HTTP happens OUTSIDE
// db's writer lock (applyRecords takes it per batch) — same lock
// discipline as replicateOut.
func (s *Server) syncWith(ctx context.Context, db *database, peer string) (pulled, pushed int, err error) {
	u := fmt.Sprintf("%s/deltalog?db=%s&from=%d", strings.TrimSuffix(peer, "/"), db.name, db.Seq())
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, 0, Validationf("peer", "%v", err)
	}
	hresp, err := s.cfg.ReplicateClient.Do(hreq)
	if err != nil {
		return 0, 0, fmt.Errorf("serve: sync pull from %s: %w", peer, err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("serve: sync pull from %s: status %d", peer, hresp.StatusCode)
	}
	var tail deltaLogResponse
	if err := json.NewDecoder(hresp.Body).Decode(&tail); err != nil {
		return 0, 0, fmt.Errorf("serve: sync pull from %s: %w", peer, err)
	}
	pulled, _, _, err = s.applyRecords(db, tail.Records)
	if err != nil {
		return pulled, 0, err
	}
	// Push back anything the peer lacks (it answered with its seq mark).
	ours := db.RecordsSince(tail.Seq)
	if len(ours) == 0 {
		return pulled, 0, nil
	}
	resp, err := s.pushRecords(ctx, peer, db.name, ours)
	if err != nil {
		return pulled, 0, err
	}
	if resp.Gap {
		resp, err = s.pushRecords(ctx, peer, db.name, db.RecordsSince(resp.Have))
		if err != nil {
			return pulled, 0, err
		}
	}
	return pulled, resp.Applied, nil
}

// pushRecords POSTs a record batch to peer's /replicate and decodes the
// receiver's state.
func (s *Server) pushRecords(ctx context.Context, peer, db string, recs []DeltaRecord) (*replicateResponse, error) {
	payload, err := json.Marshal(replicateRequest{DB: db, Records: encodeRecords(recs)})
	if err != nil {
		return nil, err
	}
	u := strings.TrimSuffix(peer, "/") + "/replicate"
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := s.cfg.ReplicateClient.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("serve: replicate to %s: %w", peer, err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: replicate to %s: status %d", peer, hresp.StatusCode)
	}
	var resp replicateResponse
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		return nil, fmt.Errorf("serve: replicate to %s: %w", peer, err)
	}
	return &resp, nil
}

// replicateOut pushes a freshly committed record (seq) to every named
// replica synchronously, repairing holes via the gap protocol: a
// receiver that is behind answers with its high-water mark and the
// sender resends the tail from there. A replica counts as confirmed
// only when its mark reaches seq. Runs AFTER db's writer lock is
// released — never hold a local lock across a peer round-trip.
//
// Each replica sits behind a circuit breaker: once a replica fails
// Threshold consecutive pushes (a partition, not just a crash), new
// mutations fail it FAST instead of each paying the replication
// timeout — the ack is still withheld, so safety is untouched; only
// the latency of learning "this replica is gone" changes. The breaker
// re-admits the replica through its half-open probe schedule.
func (s *Server) replicateOut(ctx context.Context, db *database, seq uint64, replicas []replica) (ok int, failed []string) {
	for _, rep := range replicas {
		if !s.repBreakers.Allow(rep.id) {
			failed = append(failed, rep.id)
			continue
		}
		resp, err := s.pushRecords(ctx, rep.url, db.name, db.RecordsSince(seq-1))
		if err == nil && resp.Gap {
			resp, err = s.pushRecords(ctx, rep.url, db.name, db.RecordsSince(resp.Have))
		}
		if err == nil && resp.Have < seq {
			err = fmt.Errorf("serve: replica %s holds seq %d, want %d", rep.id, resp.Have, seq)
		}
		// A push cut off by the mutation's own deadline blames nobody.
		s.repBreakers.Observe(ctx, rep.id, err)
		if err != nil {
			failed = append(failed, rep.id)
			continue
		}
		ok++
	}
	return ok, failed
}
