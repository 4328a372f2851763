package supervise_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ptx/internal/pt"
	"ptx/internal/registrar"
	"ptx/internal/supervise"
)

func testSnapshot(t *testing.T) *supervise.Snapshot {
	t.Helper()
	tr, inst := registrar.Tau1(), registrar.SampleInstance()
	sr, err := tr.NewStepRun(context.Background(), inst, pt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	return supervise.Capture(tr, inst, sr)
}

// TestDirStoreRoundTrip: save, load (same epoch, verifiable snapshot),
// delete, and absent-key behavior.
func TestDirStoreRoundTrip(t *testing.T) {
	st, err := supervise.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap := testSnapshot(t)

	if got, epoch, err := st.Load("run-1"); err != nil || got != nil || epoch != 0 {
		t.Fatalf("empty store Load = (%v, %d, %v), want (nil, 0, nil)", got, epoch, err)
	}
	if err := st.Save("run-1", 3, snap); err != nil {
		t.Fatal(err)
	}
	got, epoch, err := st.Load("run-1")
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 3 {
		t.Fatalf("loaded epoch %d, want 3", epoch)
	}
	if err := got.Verify(registrar.Tau1(), registrar.SampleInstance()); err != nil {
		t.Fatalf("loaded snapshot does not verify: %v", err)
	}
	if err := st.Delete("run-1", 3); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := st.Load("run-1"); got != nil {
		t.Fatal("snapshot survived Delete")
	}
	if err := st.Delete("run-1", 3); err != nil {
		t.Fatalf("double delete: %v", err)
	}
}

// TestDirStoreFencing is the zombie-write contract: once a successor
// has written at a higher epoch, the old owner's saves and deletes are
// rejected with *ErrFenced and the successor's progress survives
// untouched; same-epoch overwrites (one owner progressing) stay
// allowed, and a successor may overwrite its predecessor.
func TestDirStoreFencing(t *testing.T) {
	st, err := supervise.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap := testSnapshot(t)

	if err := st.Save("run", 1, snap); err != nil {
		t.Fatal(err)
	}
	if err := st.Save("run", 1, snap); err != nil {
		t.Fatalf("same-epoch overwrite rejected: %v", err)
	}
	if err := st.Save("run", 2, snap); err != nil {
		t.Fatalf("successor write rejected: %v", err)
	}
	err = st.Save("run", 1, snap)
	var fe *supervise.ErrFenced
	if !errors.As(err, &fe) {
		t.Fatalf("zombie write: got %v, want *ErrFenced", err)
	}
	if fe.Epoch != 1 || fe.Stored != 2 {
		t.Fatalf("fence detail: %+v", fe)
	}
	// The successor's entry is intact after the rejected write.
	if _, epoch, err := st.Load("run"); err != nil || epoch != 2 {
		t.Fatalf("after fenced write: Load epoch %d err %v, want 2 nil", epoch, err)
	}
	// A zombie whose run completes must not delete the successor's
	// checkpoint either.
	if err := st.Delete("run", 1); !errors.As(err, &fe) {
		t.Fatalf("zombie delete: got %v, want *ErrFenced", err)
	}
	if snap, epoch, err := st.Load("run"); err != nil || snap == nil || epoch != 2 {
		t.Fatalf("after fenced delete: Load = (%v, %d, %v), want the epoch-2 entry", snap, epoch, err)
	}
}

// TestDirStoreStaleLockIsPerKey: a stale lock file left on one key
// (its holder crashed mid-save) is waited out for LockTimeout before
// being broken — but only by writers of THAT key. A save to another key
// of the same store proceeds at once.
func TestDirStoreStaleLockIsPerKey(t *testing.T) {
	dir := t.TempDir()
	st, err := supervise.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.LockTimeout = time.Second
	snap := testSnapshot(t)
	// Find A's entry path by saving it once, then plant a stale lock.
	if err := st.Save("A", 1, snap); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("store dir after one save: %v %v", entries, err)
	}
	if err := os.WriteFile(filepath.Join(dir, entries[0].Name()+".lock"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	doneA := make(chan error, 1)
	go func() { doneA <- st.Save("A", 1, snap) }()
	time.Sleep(50 * time.Millisecond) // let Save("A") start waiting out the stale lock
	start := time.Now()
	if err := st.Save("B", 1, snap); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Fatalf("Save(B) took %v behind A's stale lock, want < 250ms", d)
	}
	if err := <-doneA; err != nil {
		t.Fatalf("Save(A) after breaking the stale lock: %v", err)
	}
}

// TestDirStoreCorruptEntry: a torn or damaged file in the store
// surfaces as the codec's typed error — never resumed from, never a
// panic.
func TestDirStoreCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	st, err := supervise.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("run", 1, testSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = st.Load("run")
	var se *supervise.SnapshotError
	if !errors.As(err, &se) {
		t.Fatalf("corrupt entry Load: got %v, want wrapped *SnapshotError", err)
	}
}

// TestDirStoreConcurrentSavers: racing writers at mixed epochs never
// corrupt the entry — the surviving file is decodable and carries the
// highest epoch that ever won.
func TestDirStoreConcurrentSavers(t *testing.T) {
	st, err := supervise.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap := testSnapshot(t)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(epoch uint64) {
			defer wg.Done()
			// Fenced rejections are expected for the low epochs.
			_ = st.Save("run", epoch, snap)
		}(uint64(1 + i%4))
	}
	wg.Wait()
	got, epoch, err := st.Load("run")
	if err != nil || got == nil {
		t.Fatalf("after racing savers: Load = (%v, %d, %v)", got, epoch, err)
	}
	if epoch < 1 || epoch > 4 {
		t.Fatalf("stored epoch %d outside the raced range", epoch)
	}
	if err := got.Verify(registrar.Tau1(), registrar.SampleInstance()); err != nil {
		t.Fatalf("raced entry does not verify: %v", err)
	}
}
