package serve

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ptx/internal/relation"
	"ptx/internal/runctl"
	"ptx/internal/value"
	"ptx/internal/wal"
)

// TestRegistryErrorPaths table-drives every registration and lookup
// failure: each must surface as a *ValidationError (the client's
// mistake, HTTP 400) and never as *runctl.ErrInternal — a typo in a
// request is not a server fault.
func TestRegistryErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		run  func(r *Registry) error
		want string // substring of the error message
	}{
		{"empty spec name", func(r *Registry) error {
			return r.RegisterSpec("", tinySpec)
		}, "empty name"},
		{"empty db name", func(r *Registry) error {
			return r.RegisterDB("", tinyDB)
		}, "empty name"},
		{"duplicate spec", func(r *Registry) error {
			return r.RegisterSpec("tiny", tinySpec)
		}, "duplicate registration"},
		{"duplicate db", func(r *Registry) error {
			return r.RegisterDB("tinydb", tinyDB)
		}, "duplicate registration"},
		{"unparsable spec", func(r *Registry) error {
			return r.RegisterSpec("broken", badSpec)
		}, "does not parse"},
		{"invalid spec", func(r *Registry) error {
			// Parses but fails Validate: rule for an undeclared tag.
			return r.RegisterSpec("undeclared", `
schema R/1
transducer bad root db start q0
tag item/1
rule q0 db -> (q1, ghost, [x;] R(x))
`)
		}, "does not"},
		{"unknown spec lookup", func(r *Registry) error {
			_, err := r.Spec("nope")
			return err
		}, `unknown spec "nope"`},
		{"unknown spec pair", func(r *Registry) error {
			_, _, _, err := r.Pair("nope", "tinydb")
			return err
		}, `unknown spec "nope"`},
		{"unknown db pair", func(r *Registry) error {
			_, _, _, err := r.Pair("tiny", "nope")
			return err
		}, `unknown database "nope"`},
		{"db does not parse against schema", func(r *Registry) error {
			_, _, _, err := r.Pair("tiny", "badrows")
			return err
		}, "does not parse against spec"},
	}
	reg := NewRegistry()
	if err := reg.RegisterSpec("tiny", tinySpec); err != nil {
		t.Fatalf("seed spec: %v", err)
	}
	if err := reg.RegisterDB("tinydb", tinyDB); err != nil {
		t.Fatalf("seed db: %v", err)
	}
	// badrows has the wrong arity for R, so it parses as text but fails
	// against tiny's schema.
	if err := reg.RegisterDB("badrows", "R(a, b, c)\n"); err != nil {
		t.Fatalf("seed badrows: %v", err)
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(reg)
			if err == nil {
				t.Fatal("expected an error")
			}
			var ve *ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("want *ValidationError, got %T: %v", err, err)
			}
			var ie *runctl.ErrInternal
			if errors.As(err, &ie) {
				t.Fatalf("registry error leaked as internal: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if status, _ := Classify(err); status != http.StatusBadRequest {
				t.Fatalf("registry error classified as %d, want 400", status)
			}
		})
	}
}

// TestRegistryUnknownListsAvailable: the unknown-name error names what
// IS registered, so a curl user can self-correct.
func TestRegistryUnknownListsAvailable(t *testing.T) {
	reg := NewRegistry()
	if err := reg.RegisterSpec("alpha", tinySpec); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterSpec("beta", tinySpec); err != nil {
		t.Fatal(err)
	}
	_, err := reg.Spec("gamma")
	if err == nil || !strings.Contains(err.Error(), "alpha, beta") {
		t.Fatalf("unknown-spec error should list available specs, got: %v", err)
	}
}

// TestRegistryPairCachesFailure: a hopeless (spec, db) pair fails fast
// forever with the SAME typed error, and a good pair returns the same
// instance and memo on every call (that identity is what makes memo
// sharing sound).
func TestRegistryPairCaching(t *testing.T) {
	reg := NewRegistry()
	if err := reg.RegisterSpec("tiny", tinySpec); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterDB("good", tinyDB); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterDB("bad", "R(a,b)\n"); err != nil {
		t.Fatal(err)
	}

	_, _, _, err1 := reg.Pair("tiny", "bad")
	_, _, _, err2 := reg.Pair("tiny", "bad")
	if err1 == nil || err2 == nil {
		t.Fatal("bad pair must error")
	}
	if err1 != err2 {
		t.Fatalf("pair failure not cached: %v vs %v", err1, err2)
	}

	_, inst1, memo1, err := reg.Pair("tiny", "good")
	if err != nil {
		t.Fatalf("good pair: %v", err)
	}
	_, inst2, memo2, err := reg.Pair("tiny", "good")
	if err != nil {
		t.Fatalf("good pair again: %v", err)
	}
	if inst1 != inst2 || memo1 != memo2 {
		t.Fatal("pair instance/memo must be cached, got fresh values")
	}
}

// TestPairAdvancesOnWrite: a write moves a cached pair to its next
// instance version instead of dropping it. Relations the delta does not
// touch are shared with the previous version, the previous version (a
// publish in flight may still hold it) keeps reading pre-delta, and one
// write plus the next resolution costs the same however long the
// database's log has grown.
func TestPairAdvancesOnWrite(t *testing.T) {
	spec, db := exampleSources(t)
	newReg := func() *Registry {
		t.Helper()
		reg := NewRegistry()
		if err := reg.RegisterSpec("tau1", spec); err != nil {
			t.Fatal(err)
		}
		if err := reg.RegisterDB("registrar", db); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := reg.Pair("tau1", "registrar"); err != nil {
			t.Fatal(err)
		}
		return reg
	}
	edge := value.Tuple{"MA101", "CS201"}
	ins := (&relation.Delta{}).InsertTuple("prereq", edge)
	del := (&relation.Delta{}).DeleteTuple("prereq", edge)

	reg := newReg()
	_, inst0, memo0, _ := reg.Pair("tau1", "registrar")
	if moved, seq, err := reg.MutateDB("registrar", ins, 0); err != nil || moved != 1 || seq != 1 {
		t.Fatalf("MutateDB = (%d, %d, %v), want one pair moved at seq 1", moved, seq, err)
	}
	_, inst1, memo1, err := reg.Pair("tau1", "registrar")
	if err != nil {
		t.Fatal(err)
	}
	if inst1 == inst0 || memo1 == memo0 {
		t.Fatal("the write did not move the pair to a new (instance, memo) version")
	}
	if inst1.Rel("course") != inst0.Rel("course") {
		t.Fatal("course is untouched by the delta but was not shared with the previous version")
	}
	if inst0.Rel("prereq").Contains(edge) || !inst1.Rel("prereq").Contains(edge) {
		t.Fatal("prereq: the previous version must read pre-delta and the new one post-delta")
	}

	// First resolutions racing writes: a write skips a pair still
	// resolving, so the resolution must catch up on it before it
	// installs its version.
	for round := 0; round < 10; round++ {
		reg := NewRegistry()
		const specs = 6
		for i := 0; i < specs; i++ {
			if err := reg.RegisterSpec(fmt.Sprintf("s%d", i), spec); err != nil {
				t.Fatal(err)
			}
		}
		if err := reg.RegisterDB("registrar", db); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				d := (&relation.Delta{}).Insert("course", fmt.Sprintf("X%d", k), "T", "CS")
				if _, _, err := reg.MutateDB("registrar", d, 0); err != nil {
					panic(err)
				}
			}
		}()
		for i := 0; i < specs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; j < i*20; j++ {
					reg.Seq("registrar")
				}
				if _, _, _, err := reg.Pair(fmt.Sprintf("s%d", i), "registrar"); err != nil {
					panic(err)
				}
			}(i)
		}
		wg.Wait()
		tr, _ := reg.Spec("s0")
		want, err := parseInstance("s0", "registrar", db, tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range reg.RecordsSince("registrar", 0) {
			if _, err := want.Apply(rec.Delta); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < specs; i++ {
			if _, inst, _, _ := reg.Pair(fmt.Sprintf("s%d", i), "registrar"); !inst.Equal(want) {
				t.Fatalf("round %d: s%d resolved while writes committed and missed some of them", round, i)
			}
		}
	}

	// Allocations of one write + resolve cycle at two log lengths. A
	// read that replayed the log would grow with it.
	allocsAt := func(logLen int) float64 {
		reg := newReg()
		n := 0
		cycle := func() {
			d := ins
			if n%2 == 1 {
				d = del
			}
			n++
			if _, _, err := reg.MutateDB("registrar", d, 0); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := reg.Pair("tau1", "registrar"); err != nil {
				t.Fatal(err)
			}
		}
		for n < logLen {
			cycle()
		}
		return testing.AllocsPerRun(100, cycle)
	}
	short, long := allocsAt(10), allocsAt(10000)
	if long > short+8 {
		t.Fatalf("write+resolve allocations grow with the log: %.0f at 10 records, %.0f at 10,000", short, long)
	}
}

// walRegistry returns a tiny/tinydb registry whose tinydb log holds
// records first..last, replayed from a WAL — so first > 1 is the shape
// a compacted WAL base leaves.
func walRegistry(t testing.TB, first, last uint64) *Registry {
	t.Helper()
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for seq := first; seq <= last; seq++ {
		d := (&relation.Delta{}).Insert("R", fmt.Sprint(seq))
		if err := w.Append(wal.Record{DB: "tinydb", Seq: seq, Epoch: 1, Delta: d}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	// AttachWAL replays what Open recovered.
	l, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	reg := NewRegistry()
	if err := reg.RegisterSpec("tiny", tinySpec); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterDB("tinydb", tinyDB); err != nil {
		t.Fatal(err)
	}
	reg.AttachWAL(l)
	return reg
}

// recordsSink keeps the benchmarked RecordsSince call from being
// optimized away.
var recordsSink []DeltaRecord

// TestRecordsSince: the resend tail is the records strictly after the
// cursor wherever the cursor falls, and reading it costs the same
// however long the log has grown.
func TestRecordsSince(t *testing.T) {
	reg := walRegistry(t, 5, 14)
	for _, tc := range []struct {
		name        string
		after       uint64
		first, last uint64 // want first..last; first > last = none
	}{
		{"before the compacted base", 2, 5, 14},
		{"at the base", 4, 5, 14},
		{"inside the log", 9, 10, 14},
		{"one before the head", 13, 14, 14},
		{"at the head", 14, 1, 0},
		{"past the head", 40, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := reg.RecordsSince("tinydb", tc.after)
			var seqs []uint64
			for _, rec := range got {
				seqs = append(seqs, rec.Seq)
			}
			var want []uint64
			for seq := tc.first; seq <= tc.last; seq++ {
				want = append(want, seq)
			}
			if fmt.Sprint(seqs) != fmt.Sprint(want) {
				t.Fatalf("RecordsSince(%d) = %v, want %v", tc.after, seqs, want)
			}
		})
	}
	if got := reg.RecordsSince("nodb", 0); got != nil {
		t.Fatalf("unknown db: %d records, want none", len(got))
	}

	// The replication hot path asks for the newest record only; its
	// cost must not grow with the log.
	perOp := func(n uint64) int64 {
		reg := walRegistry(t, 1, n)
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				recordsSink = reg.RecordsSince("tinydb", n-1)
			}
		}).AllocedBytesPerOp()
	}
	if small, large := perOp(10), perOp(10000); small != large {
		t.Fatalf("RecordsSince of one record allocates %d B/op at 10 records but %d B/op at 10,000", small, large)
	}
}

// TestPairKeepsSpecSchema: resolving a pair parses the database against
// a private copy of the spec's schema. Relations a database mentions
// beyond the spec must not leak into the registered spec (where they
// would let /mutate deltas on them validate) or into other pairs, and
// concurrent first resolutions must be race-free.
func TestPairKeepsSpecSchema(t *testing.T) {
	spec, db := exampleSources(t)
	reg := NewRegistry()
	if err := reg.RegisterSpec("tau1", spec); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterDB("plain", db); err != nil {
		t.Fatal(err)
	}
	const extras = 8
	for i := 0; i < extras; i++ {
		src := db + fmt.Sprintf("enroll(s1, c1)\nnote%d(x)\n", i)
		if err := reg.RegisterDB(fmt.Sprintf("extra%d", i), src); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, extras)
	for i := 0; i < extras; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, inst, _, err := reg.Pair("tau1", fmt.Sprintf("extra%d", i))
			if err == nil && !inst.Has("enroll") {
				err = fmt.Errorf("extra%d: the database's own enroll relation is missing", i)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	tr, _ := reg.Spec("tau1")
	if names := tr.Schema.Names(); len(names) != 2 {
		t.Fatalf("resolving pairs changed tau1's schema: %v, want [course prereq]", names)
	}
	if err := (&relation.Delta{}).Insert("enroll", "s2", "c1").Validate(tr.Schema); err == nil {
		t.Fatal("a delta on enroll validates against tau1, which does not declare it")
	}
	_, inst, _, err := reg.Pair("tau1", "plain")
	if err != nil {
		t.Fatal(err)
	}
	if inst.Has("enroll") {
		t.Fatal("(tau1, plain) gained another database's enroll relation")
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("tiny.pt", tinySpec)
	write("tinydb.db", tinyDB)
	write("notes.txt", "ignored")

	reg := NewRegistry()
	if err := reg.LoadDir(dir); err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if got := reg.SpecNames(); len(got) != 1 || got[0] != "tiny" {
		t.Fatalf("SpecNames = %v", got)
	}
	if got := reg.DBNames(); len(got) != 1 || got[0] != "tinydb" {
		t.Fatalf("DBNames = %v", got)
	}

	empty := t.TempDir()
	if err := NewRegistry().LoadDir(empty); err == nil {
		t.Fatal("LoadDir on a spec-less dir must fail loudly")
	}

	// The repo's real example specs must all load — the README curl
	// walkthrough depends on it.
	exReg := NewRegistry()
	if err := exReg.LoadDir("../../examples/specs"); err != nil {
		t.Fatalf("examples/specs does not load: %v", err)
	}
	for _, want := range []string{"tau1", "tau2v", "tau3"} {
		if _, err := exReg.Spec(want); err != nil {
			t.Fatalf("example spec %s missing: %v", want, err)
		}
	}
}

// TestDBLogAdmit pins the one acceptance rule WAL replay (AttachWAL) and
// replication (database.apply) share, on a history holding seqs 5..7 at
// epoch 2, the shape a compacted WAL base leaves.
func TestDBLogAdmit(t *testing.T) {
	held := func() *database {
		lg := &database{seq: 4}
		for seq := uint64(5); seq <= 7; seq++ {
			lg.put(DeltaRecord{Seq: seq, Epoch: 2}, len(lg.recs))
		}
		return lg
	}
	for _, tc := range []struct {
		name       string
		seq, epoch uint64
		at         int
		ok         bool
	}{
		{"duplicate", 6, 2, 0, false},
		{"older regime", 6, 1, 0, false},
		{"before the first record", 3, 9, 0, false},
		{"newer regime supersedes", 6, 3, 1, true},
		{"successor appends", 8, 2, 3, true},
		{"gap appends; the caller checks contiguity", 10, 2, 3, true},
	} {
		lg := held()
		at, ok := lg.admit(DeltaRecord{Seq: tc.seq, Epoch: tc.epoch})
		if ok != tc.ok || ok && at != tc.at {
			t.Errorf("%s: admit = (%d, %v), want (%d, %v)", tc.name, at, ok, tc.at, tc.ok)
		}
	}
	lg := held()
	lg.put(DeltaRecord{Seq: 6, Epoch: 3}, 1)
	if len(lg.recs) != 2 || lg.recs[1].Epoch != 3 || lg.seq != 6 || lg.epoch != 3 {
		t.Fatalf("after a supersede at 6: %d records, seq %d, epoch %d; want 2, 6, 3", len(lg.recs), lg.seq, lg.epoch)
	}

	// Replay takes the same rule: a WAL whose owner adopted a newer
	// regime at seq 2 recovers to the superseding record alone.
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct{ seq, epoch uint64 }{{1, 1}, {2, 1}, {3, 1}, {2, 2}, {2, 2}} {
		d := (&relation.Delta{}).Insert("R", fmt.Sprint(r.seq, "e", r.epoch))
		if err := w.Append(wal.Record{DB: "tinydb", Seq: r.seq, Epoch: r.epoch, Delta: d}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	l, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	reg := NewRegistry()
	if err := reg.RegisterDB("tinydb", tinyDB); err != nil {
		t.Fatal(err)
	}
	if n := reg.AttachWAL(l); n != 4 {
		t.Errorf("AttachWAL replayed %d records, want 4 (the duplicate skipped)", n)
	}
	if recs := reg.RecordsSince("tinydb", 0); len(recs) != 2 || recs[1].Epoch != 2 || reg.Seq("tinydb") != 2 {
		t.Fatalf("recovered log: %d records, seq %d; want 2 ending in the epoch-2 record at seq 2", len(recs), reg.Seq("tinydb"))
	}
}

// TestCommitLocksOneDatabase: a commit takes only its own database's
// lock. While database A's mu is held, as a commit holds it across every
// pair's Derive, with a write on A waiting behind it, Pair on database B
// resolves and returns, a write on B commits, and A's own Pair waits for
// the release.
func TestCommitLocksOneDatabase(t *testing.T) {
	reg := NewRegistry()
	if err := reg.RegisterSpec("tiny", tinySpec); err != nil {
		t.Fatal(err)
	}
	for _, db := range []string{"dba", "dbb"} {
		if err := reg.RegisterDB(db, tinyDB); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := reg.Pair("tiny", "dba"); err != nil {
		t.Fatal(err)
	}
	a, err := reg.db("dba")
	if err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	locked := true
	defer func() {
		if locked {
			a.mu.Unlock()
		}
	}()
	writeA := make(chan error, 1)
	go func() {
		_, _, err := reg.MutateDB("dba", (&relation.Delta{}).Insert("R", "d"), 0)
		writeA <- err
	}()
	within := func(what string, f func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- f() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s blocked while database A's mu was held", what)
		}
	}
	pairB := func() error {
		_, _, _, err := reg.Pair("tiny", "dbb")
		return err
	}
	within("resolving Pair on B", pairB)
	within("MutateDB on B", func() error {
		_, seq, err := reg.MutateDB("dbb", (&relation.Delta{}).Insert("R", "e"), 0)
		if err == nil && seq != 1 {
			err = fmt.Errorf("acked seq %d, want 1", seq)
		}
		return err
	})
	within("resolved Pair on B", pairB)

	pairA := make(chan error, 1)
	go func() {
		_, _, _, err := reg.Pair("tiny", "dba")
		pairA <- err
	}()
	select {
	case <-pairA:
		t.Fatal("Pair on A returned while A's mu was held")
	case err := <-writeA:
		t.Fatalf("MutateDB on A returned (%v) while A's mu was held", err)
	case <-time.After(50 * time.Millisecond):
	}
	locked = false
	a.mu.Unlock()
	for _, ch := range []chan error{writeA, pairA} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	if reg.Seq("dba") != 1 || reg.Seq("dbb") != 1 {
		t.Fatalf("seqs after the writes: A %d, B %d; want 1 and 1", reg.Seq("dba"), reg.Seq("dbb"))
	}
}

// TestAttachWALRegisteredOnly: AttachWAL replays only the records of
// registered databases and counts only those, and a database registered
// after it is refused, so no history restarts at seq 1 over records on
// disk.
func TestAttachWALRegisteredOnly(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		db  string
		seq uint64
	}{{"tinydb", 1}, {"ghost", 1}, {"ghost", 2}, {"tinydb", 2}, {"ghost", 3}} {
		d := (&relation.Delta{}).Insert("R", fmt.Sprint(r.db, r.seq))
		if err := w.Append(wal.Record{DB: r.db, Seq: r.seq, Epoch: 1, Delta: d}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	l, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	reg := NewRegistry()
	if err := reg.RegisterSpec("tiny", tinySpec); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterDB("tinydb", tinyDB); err != nil {
		t.Fatal(err)
	}
	if n := reg.AttachWAL(l); n != 2 {
		t.Errorf("AttachWAL replayed %d records, want 2 (ghost's 3 skipped)", n)
	}
	if reg.Seq("tinydb") != 2 || reg.Seq("ghost") != 0 || reg.RecordsSince("ghost", 0) != nil {
		t.Fatalf("after AttachWAL: tinydb at seq %d, ghost at %d with %d records; want 2, 0 and none",
			reg.Seq("tinydb"), reg.Seq("ghost"), len(reg.RecordsSince("ghost", 0)))
	}
	_, inst, _, err := reg.Pair("tiny", "tinydb")
	if err != nil {
		t.Fatal(err)
	}
	if r := inst.Rel("R"); r.Len() != 5 {
		t.Errorf("tinydb's R holds %d tuples after replay, want 5 (3 + tinydb1, tinydb2)", r.Len())
	}

	var ve *ValidationError
	if err := reg.RegisterDB("ghost", tinyDB); !errors.As(err, &ve) {
		t.Fatalf("RegisterDB after AttachWAL = %v, want a *ValidationError", err)
	}
	if _, err := reg.db("ghost"); err == nil {
		t.Fatal("the refused database was registered")
	}
}

// TestAttachWALHoldsEveryWriter: AttachWAL sets the registry's log only
// once it holds every database's writer lock, so no write finds the
// registry attached and its own database not. The test holds "a"'s
// writer lock in place of a write in flight: meanwhile the registry
// reports no log and still registers "c", and the attach that follows
// takes "c" in too, so a write to it is durable.
func TestAttachWALHoldsEveryWriter(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(wal.Record{DB: "b", Seq: 1, Epoch: 1, Delta: (&relation.Delta{}).Insert("R", "b1")}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	l, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	reg := NewRegistry()
	for _, name := range []string{"a", "b"} {
		if err := reg.RegisterDB(name, tinyDB); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := reg.db("a")
	a.w.Lock()
	attached := make(chan int)
	go func() { attached <- reg.AttachWAL(l) }()
	time.Sleep(50 * time.Millisecond) // AttachWAL now waits on a's writer lock
	if reg.WALMetrics().Recovered != 0 {
		t.Error("the registry reports its log while a's writer lock is out")
	}
	if err := reg.RegisterDB("c", tinyDB); err != nil {
		t.Fatalf("RegisterDB before the log is set: %v", err)
	}
	a.w.Unlock()
	if n := <-attached; n != 1 {
		t.Errorf("AttachWAL replayed %d records, want 1", n)
	}
	if _, _, err := reg.MutateDB("c", (&relation.Delta{}).Insert("R", "c1"), 0); err != nil {
		t.Fatal(err)
	}
	if got := l.Metrics().Appended; got != 1 || reg.Seq("b") != 1 || reg.Seq("c") != 1 {
		t.Fatalf("%d records appended, b at seq %d, c at seq %d; want 1, 1 and 1", got, reg.Seq("b"), reg.Seq("c"))
	}
}
