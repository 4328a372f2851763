package wal

import (
	"os"
	"path/filepath"
	"sort"

	"ptx/internal/relation"
)

// Compact collapses the log's history, replayed from disk, into a base
// snapshot: one net record per database whose delta is the last op for
// every touched (relation, tuple) — sound because deltas are
// set-membership assignments, so the final membership of a tuple is its
// last op, independent of the intermediate history. The net record
// keeps the database's sequence and epoch high-water marks, so
// replication and fencing arithmetic survive compaction. Older segments
// (and any older base) are deleted once the new base is durable; a
// crash mid-compact leaves the old files in place and the new base
// unreferenced or newest-wins — either way recovery is consistent.
func (l *Log) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return &StorageError{Op: "compact", Err: os.ErrClosed}
	}
	// Recovery healed the replay set and every failed append rolled
	// itself back, so damage here is new: fold nothing over it.
	records, rep, err := ReadDir(l.dir)
	if err == nil && len(rep.Corruptions) > 0 {
		err = &StorageError{Op: "compact", Err: rep.Corruptions[0]}
	}
	if err != nil {
		return err
	}

	// Net membership per database, preserving a deterministic op order
	// (sorted by relation, then tuple) so compaction is reproducible.
	type lastOp struct {
		key string // rel \x00 tuple-key, the sort key
		op  relation.DeltaOp
	}
	net := make(map[string]map[string]lastOp) // db → op key → last op
	seq := make(map[string]uint64)
	epoch := make(map[string]uint64)
	var dbs []string
	for _, rec := range records {
		m, ok := net[rec.DB]
		if !ok {
			m = make(map[string]lastOp)
			net[rec.DB] = m
			dbs = append(dbs, rec.DB)
		}
		if rec.Seq > seq[rec.DB] {
			seq[rec.DB] = rec.Seq
		}
		if rec.Epoch > epoch[rec.DB] {
			epoch[rec.DB] = rec.Epoch
		}
		if rec.Delta == nil {
			continue
		}
		for _, op := range rec.Delta.Ops {
			k := op.Rel + "\x00" + op.Tuple.Key()
			m[k] = lastOp{key: k, op: op}
		}
	}
	sort.Strings(dbs)

	baseIdx := l.nextIdx
	compacted := make([]Record, 0, len(dbs))
	for _, db := range dbs {
		ops := make([]lastOp, 0, len(net[db]))
		for _, lo := range net[db] {
			ops = append(ops, lo)
		}
		sort.Slice(ops, func(i, j int) bool { return ops[i].key < ops[j].key })
		d := &relation.Delta{Ops: make([]relation.DeltaOp, 0, len(ops))}
		for _, lo := range ops {
			d.Ops = append(d.Ops, lo.op)
		}
		compacted = append(compacted, Record{DB: db, Seq: seq[db], Epoch: epoch[db], Delta: d})
	}

	// Write the base durably before touching the old files.
	path := filepath.Join(l.dir, baseName(baseIdx))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return &StorageError{Op: "compact", Err: err}
	}
	if _, err := f.WriteString(Magic); err != nil {
		f.Close()
		os.Remove(path)
		return &StorageError{Op: "compact", Err: err}
	}
	for _, rec := range compacted {
		if _, err := f.Write(encodeFrame(rec)); err != nil {
			f.Close()
			os.Remove(path)
			return &StorageError{Op: "compact", Err: err}
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return &StorageError{Op: "compact", Err: err}
	}
	if err := f.Close(); err != nil {
		return &StorageError{Op: "compact", Err: err}
	}
	if err := syncDir(l.dir); err != nil {
		return &StorageError{Op: "compact", Err: err}
	}
	l.fsyncs++

	// The base is durable: older files are garbage now. Removal is
	// best-effort — a leftover older file is shadowed by the newer base
	// at the next recovery.
	if l.f != nil {
		_ = l.f.Close()
		l.f = nil
		l.size = 0
	}
	entries, err := os.ReadDir(l.dir)
	if err == nil {
		for _, e := range entries {
			wf, ok := parseName(e.Name())
			if !ok || wf.idx >= baseIdx {
				continue
			}
			_ = os.Remove(filepath.Join(l.dir, e.Name()))
		}
	}
	l.nextIdx = baseIdx + 1
	l.compactions++
	return nil
}
