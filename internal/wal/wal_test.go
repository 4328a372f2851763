package wal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ptx/internal/relation"
	"ptx/internal/runctl"
)

func ins(rel string, vals ...string) *relation.Delta {
	return (&relation.Delta{}).Insert(rel, vals...)
}

func appendN(t *testing.T, l *Log, db string, n int, start uint64) {
	t.Helper()
	for i := 0; i < n; i++ {
		seq := start + uint64(i)
		d := (&relation.Delta{}).Insert("R", "v"+strings.Repeat("x", i%3)).Delete("R", "gone")
		if err := l.Append(Record{DB: db, Seq: seq, Epoch: 1, Delta: d}); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
	}
}

// TestAppendRecoverRoundtrip: records appended and fsynced come back
// byte-identical from a fresh Open, in order, across databases and
// through percent-escaping-hostile names.
func TestAppendRecoverRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hostile := "sp ace\nnew%line"
	recs := []Record{
		{DB: "alpha", Seq: 1, Epoch: 0, Delta: ins("R", "a", "b")},
		{DB: "beta", Seq: 1, Epoch: 7, Delta: (&relation.Delta{}).Delete("S", hostile, "")},
		{DB: "alpha", Seq: 2, Epoch: 3, Delta: ins(hostile)},
	}
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if m := l.Metrics(); m.Appended != 3 || m.Fsyncs == 0 {
		t.Fatalf("metrics = %+v, want 3 appends and nonzero fsyncs", m)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rep := l2.Report()
	if len(rep.Corruptions) != 0 || rep.Records != 3 {
		t.Fatalf("clean log recovered %+v", rep)
	}
	got := l2.Records()
	if len(got) != len(recs) {
		t.Fatalf("recovered %d records, want %d", len(got), len(recs))
	}
	for i, rec := range recs {
		g := got[i]
		if g.DB != rec.DB || g.Seq != rec.Seq || g.Epoch != rec.Epoch || g.Delta.String() != rec.Delta.String() {
			t.Errorf("record %d: got %v/%d/%d %s, want %v/%d/%d %s",
				i, g.DB, g.Seq, g.Epoch, g.Delta, rec.DB, rec.Seq, rec.Epoch, rec.Delta)
		}
	}
	if m := l2.Metrics(); m.Recovered != 3 {
		t.Fatalf("recovered metric = %d, want 3", m.Recovered)
	}
}

// TestSegmentRotation: appends past SegmentBytes seal the active
// segment and open a new one; recovery replays across the boundary.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, "db", 20, 1)
	l.Close()

	entries, _ := os.ReadDir(dir)
	segs := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") {
			segs++
		}
	}
	if segs < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %d", segs)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := len(l2.Records()); got != 20 {
		t.Fatalf("recovered %d records across segments, want 20", got)
	}
}

// TestTornTailTruncation: a partial frame at the end of a segment (the
// classic mid-write crash) is truncated with a typed report, the valid
// prefix survives, and appends continue cleanly afterwards.
func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	appendN(t, l, "db", 3, 1)
	l.Close()

	// Tear the tail: append half a frame to the active segment.
	segs := walFiles(t, dir)
	path := filepath.Join(dir, segs[len(segs)-1])
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("rec 999 deadbeef"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	pre, _ := os.Stat(path)

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := l2.Report()
	if len(rep.Corruptions) != 1 {
		t.Fatalf("corruptions = %v, want exactly the torn tail", rep.Corruptions)
	}
	var ce *CorruptError
	if !errors.As(rep.Corruptions[0], &ce) || !strings.Contains(ce.Reason, "header") {
		t.Fatalf("report = %v, want a typed torn-header CorruptError", rep.Corruptions[0])
	}
	if rep.TruncatedBytes == 0 {
		t.Fatal("report claims zero truncated bytes for a torn tail")
	}
	if got := len(l2.Records()); got != 3 {
		t.Fatalf("recovered %d records, want the 3 valid ones", got)
	}
	post, _ := os.Stat(path)
	if post.Size() >= pre.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d bytes", pre.Size(), post.Size())
	}

	// The log must keep accepting appends after the repair.
	if err := l2.Append(Record{DB: "db", Seq: 4, Epoch: 1, Delta: ins("R", "post")}); err != nil {
		t.Fatalf("append after torn-tail repair: %v", err)
	}
	l2.Close()
	l3, _ := Open(dir, Options{})
	defer l3.Close()
	if got := len(l3.Records()); got != 4 {
		t.Fatalf("post-repair append lost: recovered %d, want 4", got)
	}
}

// TestBitFlipDetection: flipping one payload byte fails the checksum;
// recovery truncates to the last valid record before the flip and
// reports the damage with the segment name and offset.
func TestBitFlipDetection(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	appendN(t, l, "db", 5, 1)
	l.Close()

	segs := walFiles(t, dir)
	path := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the THIRD record's payload: find its frame.
	idx := strings.Index(string(data), "rec ")
	for i := 0; i < 2; i++ {
		next := strings.Index(string(data[idx+4:]), "rec ")
		if next < 0 {
			t.Fatal("test setup: fewer frames than expected")
		}
		idx += 4 + next
	}
	flip := idx + 80 // inside the third frame's payload
	data[flip] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rep := l2.Report()
	if len(rep.Corruptions) == 0 {
		t.Fatal("bit flip went undetected")
	}
	ce := rep.Corruptions[0]
	if ce.File != segs[0] || ce.Offset == 0 {
		t.Fatalf("corruption report %v lacks segment/offset detail", ce)
	}
	if got := len(l2.Records()); got != 2 {
		t.Fatalf("recovered %d records, want the 2 before the flip", got)
	}
}

// TestCorruptionDropsLaterSegments: a corrupted EARLIER segment strands
// every later one — replaying past a hole would reorder history — and
// the report says so per dropped file.
func TestCorruptionDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{SegmentBytes: 200, NoSync: true})
	appendN(t, l, "db", 12, 1)
	l.Close()
	segs := walFiles(t, dir)
	if len(segs) < 3 {
		t.Fatalf("test setup: want >=3 segments, got %d", len(segs))
	}
	// Corrupt the FIRST segment's first record checksum.
	path := filepath.Join(dir, segs[0])
	data, _ := os.ReadFile(path)
	data[len(Magic)+10] ^= 0xff
	os.WriteFile(path, data, 0o644)

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rep := l2.Report()
	if len(rep.Corruptions) != len(segs) {
		t.Fatalf("got %d corruption entries, want one per affected file (%d)", len(rep.Corruptions), len(segs))
	}
	if got := len(l2.Records()); got != 0 {
		t.Fatalf("recovered %d records past a first-segment corruption, want 0", got)
	}
	for _, name := range segs[1:] {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("stranded segment %s not removed", name)
		}
	}
}

// TestCompaction: Compact collapses history to one net record per
// database preserving final membership and the seq/epoch high-water
// marks, deletes the old segments, and recovery replays the base.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{SegmentBytes: 128, NoSync: true})
	// a: inserted then deleted (net absent); b: deleted then inserted
	// (net present); c: inserted once.
	steps := []*relation.Delta{
		ins("R", "a"),
		ins("R", "b"),
		(&relation.Delta{}).Delete("R", "a").Insert("R", "c"),
		(&relation.Delta{}).Delete("R", "b"),
		ins("R", "b"),
	}
	for i, d := range steps {
		if err := l.Append(Record{DB: "db", Seq: uint64(i + 1), Epoch: uint64(i), Delta: d}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if m := l.Metrics(); m.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", m.Compactions)
	}

	// Appends continue after compaction and recovery sees base + tail.
	if err := l.Append(Record{DB: "db", Seq: 6, Epoch: 9, Delta: ins("R", "tail")}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := l2.Records()
	if len(got) != 2 {
		t.Fatalf("recovered %d records, want net + tail", len(got))
	}
	net := got[0]
	if net.Seq != 5 || net.Epoch != 4 {
		t.Fatalf("net record seq/epoch = %d/%d, want high-water 5/4", net.Seq, net.Epoch)
	}
	if s := net.Delta.String(); s != "-R(a) +R(b) +R(c)" {
		t.Fatalf("net delta = %q, want deterministic last-op-wins %q", s, "-R(a) +R(b) +R(c)")
	}
	if got[1].Delta.String() != "+R(tail)" {
		t.Fatalf("recovered wrong tail: %v", got[1].Delta)
	}
	baseIdx := -1
	for _, name := range walFiles(t, dir) {
		wf, _ := parseName(name)
		if wf.base && wf.idx > baseIdx {
			baseIdx = wf.idx
		}
	}
	if baseIdx < 0 {
		t.Fatal("no base snapshot on disk after Compact")
	}
	for _, name := range walFiles(t, dir) {
		if wf, _ := parseName(name); wf.idx < baseIdx {
			t.Errorf("pre-compaction file %s survived Compact", name)
		}
	}
}

// TestFsyncPolicy: NoSync issues no fsyncs on the append path; the
// default policy issues at least one per append.
func TestFsyncPolicy(t *testing.T) {
	l1, _ := Open(t.TempDir(), Options{NoSync: true})
	appendN(t, l1, "db", 4, 1)
	if m := l1.Metrics(); m.Fsyncs != 0 {
		t.Fatalf("NoSync issued %d fsyncs", m.Fsyncs)
	}
	l1.Close()

	l2, _ := Open(t.TempDir(), Options{})
	appendN(t, l2, "db", 4, 1)
	if m := l2.Metrics(); m.Fsyncs < 4 {
		t.Fatalf("sync policy issued %d fsyncs for 4 appends", m.Fsyncs)
	}
	l2.Close()
}

// TestCrashPointInjection: both injected crash points surface as typed
// *StorageError AND leave the record atomically absent — the next Open
// sees exactly the durable prefix, never a torn frame.
func TestCrashPointInjection(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   runctl.Op
	}{
		{"pre-write", runctl.OpWALAppend},
		{"post-write-pre-fsync", runctl.OpWALSync},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			boom := errors.New("injected crash")
			l, err := Open(dir, Options{Faults: &runctl.FaultPlan{Op: tc.op, N: 2, Err: boom}})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append(Record{DB: "db", Seq: 1, Epoch: 0, Delta: ins("R", "first")}); err != nil {
				t.Fatalf("append 1: %v", err)
			}
			err = l.Append(Record{DB: "db", Seq: 2, Epoch: 0, Delta: ins("R", "crashed")})
			var se *StorageError
			if !errors.As(err, &se) {
				t.Fatalf("injected crash surfaced as %v, want *StorageError", err)
			}
			// Third append succeeds: the log healed in place.
			if err := l.Append(Record{DB: "db", Seq: 2, Epoch: 0, Delta: ins("R", "retry")}); err != nil {
				t.Fatalf("append after crash: %v", err)
			}
			l.Close()

			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if rep := l2.Report(); len(rep.Corruptions) != 0 {
				t.Fatalf("crash rollback left torn bytes: %v", rep.Corruptions)
			}
			recs := l2.Records()
			if len(recs) != 2 {
				t.Fatalf("recovered %d records, want the 2 durable ones", len(recs))
			}
			for _, rec := range recs {
				if strings.Contains(rec.Delta.String(), "crashed") {
					t.Fatal("the un-acked record survived the crash")
				}
			}
		})
	}
}

// TestReadDirIsReadOnly: the offline replay path reports corruption
// without repairing it — a live server's log must not be mutated by an
// operator peeking at it.
func TestReadDirIsReadOnly(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	appendN(t, l, "db", 2, 1)
	l.Close()
	segs := walFiles(t, dir)
	path := filepath.Join(dir, segs[len(segs)-1])
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString("torn")
	f.Close()
	pre, _ := os.Stat(path)

	recs, rep, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || len(rep.Corruptions) != 1 {
		t.Fatalf("ReadDir = %d records, %d corruptions; want 2 and 1", len(recs), len(rep.Corruptions))
	}
	post, _ := os.Stat(path)
	if post.Size() != pre.Size() {
		t.Fatal("ReadDir repaired the file; it must be read-only")
	}
}

// TestRecordsHandedOverOnce: Records returns what Open recovered, once,
// and nothing appended since; Compact still folds the whole history,
// which it reads from disk.
func TestRecordsHandedOverOnce(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []string{"a", "b"} {
		if err := l.Append(Record{DB: "db", Seq: uint64(i + 1), Delta: ins("R", v)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	l, err = Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(Record{DB: "db", Seq: 3, Delta: ins("R", "c")}); err != nil {
		t.Fatal(err)
	}
	if got := l.Records(); len(got) != 2 || got[1].Seq != 2 {
		t.Fatalf("first Records: %d records, want the 2 Open recovered", len(got))
	}
	if got := l.Records(); got != nil {
		t.Fatalf("second Records: %d records, want none", len(got))
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Records(); len(got) != 1 || got[0].Seq != 3 || got[0].Delta.String() != "+R(a) +R(b) +R(c)" {
		t.Fatalf("after Compact: %v, want one net record through seq 3", got)
	}
}

// TestCompactRefusesDamage: damage that appears on disk after Open is
// never folded into a base; Compact fails typed and writes none.
func TestCompactRefusesDamage(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, "db", 3, 1)
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var se *StorageError
	var ce *CorruptError
	if err := l.Compact(); !errors.As(err, &se) || !errors.As(err, &ce) {
		t.Fatalf("compact over damage: %v, want a StorageError wrapping a CorruptError", err)
	}
	for _, name := range walFiles(t, dir) {
		if wf, _ := parseName(name); wf.base {
			t.Fatalf("compact over damage wrote %s", name)
		}
	}
}

func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if _, ok := parseName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	return names
}
