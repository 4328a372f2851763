// Package wal is the durable, replicated mutation log under the
// serving tier: a checksummed append-only segment store in the
// sealed-file style of supervise's checkpoints. Every accepted delta is
// appended and fsynced BEFORE it is acknowledged, so a process restart
// (or an owner crash, with replication) replays the log and serves
// post-delta bytes — an acknowledged mutation is never lost.
//
// The failure contract is typed end to end: a write-path failure
// (fsync, disk full, injected crash point) is a *StorageError and the
// record it covered is atomically absent — partial writes are rolled
// back before the error returns. Recovery-time damage (torn tails from
// a mid-write crash, bit-flips) is a *CorruptError in the recovery
// report: the log truncates to the last valid record, drops segments
// stranded past the damage, and keeps serving.
//
// Segments rotate at a size threshold and Compact collapses history
// into a base snapshot holding one net record per database (set
// semantics make the last op per tuple authoritative), bounding both
// disk and replay time.
package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"ptx/internal/runctl"
)

// Options parameterizes a Log. The zero value selects production-sane
// defaults: fsync on every append, 1 MiB segments, no fault injection.
type Options struct {
	// NoSync skips the per-append fsync. Throughput goes up; the
	// durability guarantee degrades to "survives process death, not
	// power loss". Benchmarks quantify the gap.
	NoSync bool
	// SegmentBytes rotates the active segment beyond this size
	// (default 1 MiB).
	SegmentBytes int64
	// Faults injects crash-point failures (tests only): OpWALAppend
	// fires before any bytes are written, OpWALSync fires between the
	// write and its fsync (the write is rolled back — exactly a crash
	// between write and sync).
	Faults *runctl.FaultPlan
}

// Metrics is a point-in-time snapshot of a Log's counters.
type Metrics struct {
	Appended    int64 `json:"appended"`    // records durably appended
	Fsyncs      int64 `json:"fsyncs"`      // fsyncs issued on the append path
	Recovered   int64 `json:"recovered"`   // records replayed at Open
	Compactions int64 `json:"compactions"` // Compact calls completed
}

// RecoveryReport describes what Open found: how many records and
// segments survived, and every typed corruption encountered (empty for
// a clean log).
type RecoveryReport struct {
	Records        int
	Segments       int
	Corruptions    []*CorruptError
	TruncatedBytes int64
}

// Log is an open write-ahead log rooted at one directory. All methods
// are safe for concurrent use.
type Log struct {
	dir string
	opt Options

	mu      sync.Mutex
	f       *os.File // active segment (nil until the first append)
	size    int64    // bytes in the active segment
	nextIdx int      // file index for the NEXT segment created
	records []Record // what Open recovered, until Records hands it over
	closed  bool

	appended    int64
	fsyncs      int64
	recovered   int64
	compactions int64
	report      RecoveryReport
}

// walFile is one parsed directory entry.
type walFile struct {
	name string
	idx  int
	base bool
}

func segName(idx int) string  { return fmt.Sprintf("seg-%010d.wal", idx) }
func baseName(idx int) string { return fmt.Sprintf("base-%010d.wal", idx) }

func parseName(name string) (walFile, bool) {
	var idx int
	switch {
	case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".wal"):
		if _, err := fmt.Sscanf(name, "seg-%d.wal", &idx); err == nil {
			return walFile{name: name, idx: idx}, true
		}
	case strings.HasPrefix(name, "base-") && strings.HasSuffix(name, ".wal"):
		if _, err := fmt.Sscanf(name, "base-%d.wal", &idx); err == nil {
			return walFile{name: name, idx: idx, base: true}, true
		}
	}
	return walFile{}, false
}

// scanDir lists the replay set in replay order: the newest base
// snapshot (if any) followed by every segment younger than it. maxIdx
// is the highest file index seen, across ALL wal files.
func scanDir(dir string) (files []walFile, maxIdx int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	var all []walFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if f, ok := parseName(e.Name()); ok {
			all = append(all, f)
			if f.idx > maxIdx {
				maxIdx = f.idx
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].idx < all[j].idx })
	baseIdx := -1
	for _, f := range all {
		if f.base && f.idx > baseIdx {
			baseIdx = f.idx
		}
	}
	for _, f := range all {
		if f.base && f.idx == baseIdx {
			files = append(files, f)
		} else if !f.base && f.idx > baseIdx {
			files = append(files, f)
		}
	}
	return files, maxIdx, nil
}

// replayDir decodes the replay set. When repair is true the damage is
// healed in place: torn tails are truncated to the last valid record
// and segments stranded past a corruption are deleted (their records
// would leave a hole in the sequence).
func replayDir(dir string, files []walFile, repair bool) ([]Record, RecoveryReport, error) {
	var records []Record
	rep := RecoveryReport{}
	dropRest := false
	for _, f := range files {
		path := filepath.Join(dir, f.name)
		if dropRest {
			data, _ := os.ReadFile(path)
			rep.TruncatedBytes += int64(len(data))
			rep.Corruptions = append(rep.Corruptions, &CorruptError{
				File: f.name, Offset: 0, Reason: "dropped: follows a corrupted segment",
			})
			if repair {
				_ = os.Remove(path)
			}
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, rep, &StorageError{Op: "recover", Err: err}
		}
		recs, valid, cerr := DecodeSegment(f.name, data)
		records = append(records, recs...)
		rep.Segments++
		if cerr != nil {
			rep.Corruptions = append(rep.Corruptions, cerr)
			rep.TruncatedBytes += int64(len(data)) - valid
			if repair {
				if err := os.Truncate(path, valid); err != nil {
					return nil, rep, &StorageError{Op: "recover", Err: err}
				}
			}
			dropRest = true
		}
	}
	rep.Records = len(records)
	return records, rep, nil
}

// Open recovers the log rooted at dir (created if absent) and readies
// it for appends. Corruption never fails Open: the log truncates to the
// last valid record and reports the damage via Report(). The active
// segment is created lazily on the first append, so recovery alone
// writes nothing but the repairs.
func Open(dir string, opt Options) (*Log, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = 1 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, &StorageError{Op: "open", Err: err}
	}
	files, maxIdx, err := scanDir(dir)
	if err != nil {
		return nil, &StorageError{Op: "open", Err: err}
	}
	records, rep, err := replayDir(dir, files, true)
	if err != nil {
		return nil, err
	}
	l := &Log{
		dir:       dir,
		opt:       opt,
		nextIdx:   maxIdx + 1,
		records:   records,
		recovered: int64(len(records)),
		report:    rep,
	}
	return l, nil
}

// ReadDir replays the log rooted at dir WITHOUT repairing or opening it
// for appends — the offline path (ptxml -delta on a live server's log).
// Corruption is reported, never healed.
func ReadDir(dir string) ([]Record, RecoveryReport, error) {
	files, _, err := scanDir(dir)
	if err != nil {
		return nil, RecoveryReport{}, &StorageError{Op: "read", Err: err}
	}
	return replayDir(dir, files, false)
}

// Report returns the recovery report from Open.
func (l *Log) Report() RecoveryReport {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.report
}

// Metrics snapshots the counters.
func (l *Log) Metrics() Metrics {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Metrics{
		Appended:    l.appended,
		Fsyncs:      l.fsyncs,
		Recovered:   l.recovered,
		Compactions: l.compactions,
	}
}

// Records hands over the history Open recovered, in replay order, and
// drops the log's reference: only the first call (AttachWAL's) gets it,
// and records appended since Open are not in it. The log keeps no
// in-memory copy of its history.
func (l *Log) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	recs := l.records
	l.records = nil
	return recs
}

// syncDir fsyncs a directory so a freshly created file name is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// newSegment creates (and durably names) the next segment file, writes
// its magic line and makes it the active segment. Caller holds l.mu.
func (l *Log) newSegment() error {
	path := filepath.Join(l.dir, segName(l.nextIdx))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(Magic); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if !l.opt.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(path)
			return err
		}
		if err := syncDir(l.dir); err != nil {
			f.Close()
			return err
		}
		l.fsyncs++
	}
	if l.f != nil {
		_ = l.f.Close()
	}
	l.f = f
	l.size = int64(len(Magic))
	l.nextIdx++
	return nil
}

// Append durably appends one record: encode, write, fsync (per the
// fsync policy), THEN return — the caller may acknowledge the delta the
// moment Append returns nil. Any failure on the path (including
// injected crash points) rolls the partial write back and returns a
// *StorageError: the record is atomically absent, never torn.
func (l *Log) Append(rec Record) error {
	if rec.Delta == nil || rec.Delta.Empty() {
		return &StorageError{Op: "append", Err: fmt.Errorf("empty delta for %q", rec.DB)}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return &StorageError{Op: "append", Err: fmt.Errorf("log is closed")}
	}
	// Crash point 1: before any bytes reach the segment. Nothing to
	// roll back — the record simply never existed.
	if err := l.opt.Faults.Check(runctl.OpWALAppend); err != nil {
		return &StorageError{Op: "append", Err: err}
	}
	frame := encodeFrame(rec)
	if l.f == nil || (l.size > int64(len(Magic)) && l.size+int64(len(frame)) > l.opt.SegmentBytes) {
		if err := l.newSegment(); err != nil {
			return &StorageError{Op: "rotate", Err: err}
		}
	}
	pre := l.size
	n, err := l.f.Write(frame)
	if err != nil {
		l.rollback(pre)
		return &StorageError{Op: "append", Err: err}
	}
	l.size += int64(n)
	// Crash point 2: bytes written, fsync never happened. Roll the
	// write back so the in-process state matches what a power loss
	// would leave after recovery truncates the torn tail.
	if err := l.opt.Faults.Check(runctl.OpWALSync); err != nil {
		l.rollback(pre)
		return &StorageError{Op: "fsync", Err: err}
	}
	if !l.opt.NoSync {
		if err := l.f.Sync(); err != nil {
			l.rollback(pre)
			return &StorageError{Op: "fsync", Err: err}
		}
		l.fsyncs++
	}
	l.appended++
	return nil
}

// rollback truncates the active segment to pre, discarding a write
// that failed to become durable. Caller holds l.mu.
func (l *Log) rollback(pre int64) {
	if l.f == nil {
		return
	}
	if err := l.f.Truncate(pre); err == nil {
		if _, err := l.f.Seek(pre, 0); err == nil {
			l.size = pre
		}
	}
}

// Close seals the active segment. Further appends fail with a
// *StorageError.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	var err error
	if !l.opt.NoSync {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	if err != nil {
		return &StorageError{Op: "close", Err: err}
	}
	return nil
}
