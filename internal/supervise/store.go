// CheckpointStore is the distributed-handoff side of checkpointing: a
// shared place where one node's interrupted run can be picked up by
// another. The store is keyed by an opaque run key (the coordinator
// derives it from the request) and every write carries an OWNERSHIP
// EPOCH — a monotonically increasing integer the cluster coordinator
// bumps whenever a key's owner changes. A write whose epoch is lower
// than the stored entry's is rejected with *ErrFenced: a node that
// kept running after losing ownership (a "zombie" — drained,
// partitioned, or presumed dead) cannot clobber the progress its
// successor has already made. This is the classic fencing-token
// discipline; the filesystem implementation below is the shared-dir
// deployment (NFS volume, k8s PVC), and the interface leaves room for
// an object-store or kv-backed one.
package supervise

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// CheckpointStore persists run checkpoints under opaque keys with
// ownership-epoch fencing. Implementations must be safe for concurrent
// use by multiple goroutines and (for shared-backend implementations)
// multiple processes.
type CheckpointStore interface {
	// Save persists snap under key. It fails with *ErrFenced when the
	// store already holds an entry for key written at a HIGHER epoch —
	// the caller has lost ownership and must stop working on the run.
	// Same-epoch writes overwrite (one owner making forward progress).
	Save(key string, epoch uint64, snap *Snapshot) error

	// Load returns the stored snapshot and the epoch it was written at,
	// or (nil, 0, nil) when no entry exists. A stored entry that fails
	// to decode is surfaced as the codec's typed error (*SnapshotError
	// wrapped) — callers treat it as "no usable checkpoint", never as
	// something to resume from.
	Load(key string) (*Snapshot, uint64, error)

	// Delete removes the entry for key (a completed run's checkpoint).
	// It fails with *ErrFenced, leaving the entry in place, when the
	// entry was written at a HIGHER epoch: a zombie owner finishing its
	// run must not erase its successor's progress. Deleting an absent
	// key is not an error.
	Delete(key string, epoch uint64) error
}

// ErrFenced reports a checkpoint write rejected by the ownership fence:
// the store holds an entry written at a higher epoch, meaning another
// node now owns the run. The holder should abandon the run — its result
// would be discarded anyway.
type ErrFenced struct {
	Key    string
	Epoch  uint64 // the rejected write's epoch
	Stored uint64 // the epoch already in the store
}

func (e *ErrFenced) Error() string {
	return fmt.Sprintf("supervise: checkpoint write fenced: key %.12s… epoch %d is stale (store has epoch %d)",
		e.Key, e.Epoch, e.Stored)
}

// DirStore is the filesystem CheckpointStore: one file per key in a
// shared directory, each holding an epoch header line followed by the
// versioned snapshot encoding. Writes go through a temp file and an
// atomic rename; the read-compare-write of the fencing check is
// serialized by a per-key lock file (O_CREATE|O_EXCL), which works on
// the shared filesystems this store targets.
type DirStore struct {
	dir string

	// mu guards keys: one in-process mutex per key path with waiters,
	// so in-process callers never contend on the lock file against
	// themselves, and a stale lock file on one key never stalls writes
	// to another.
	mu   sync.Mutex
	keys map[string]*keyLock

	// LockTimeout bounds how long Save/Delete waits for a key's lock
	// file before treating it as stale and breaking it (a crashed
	// holder cannot release). Default 2s.
	LockTimeout time.Duration
}

// NewDirStore opens (creating if needed) a directory-backed store.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("supervise: checkpoint store: %w", err)
	}
	return &DirStore{dir: dir, keys: map[string]*keyLock{}, LockTimeout: 2 * time.Second}, nil
}

// path maps an opaque key to a filename: keys are hashed, so any byte
// sequence is a valid key and no key can escape the store directory.
func (d *DirStore) path(key string) string {
	h := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, hex.EncodeToString(h[:16])+".ckpt")
}

// keyLock is one key path's in-process mutex; refs counts its holders
// and waiters, and the last one out drops it from DirStore.keys.
type keyLock struct {
	sync.Mutex
	refs int
}

// lock acquires path's in-process mutex and then its cross-process
// lock file, polling until LockTimeout and then breaking the (presumed
// stale) lock file.
func (d *DirStore) lock(path string) (release func(), err error) {
	d.mu.Lock()
	k := d.keys[path]
	if k == nil {
		k = &keyLock{}
		d.keys[path] = k
	}
	k.refs++
	d.mu.Unlock()
	k.Lock()
	unlock := func() {
		k.Unlock()
		d.mu.Lock()
		if k.refs--; k.refs == 0 {
			delete(d.keys, path)
		}
		d.mu.Unlock()
	}

	lockPath := path + ".lock"
	deadline := time.Now().Add(d.LockTimeout)
	for {
		f, err := os.OpenFile(lockPath, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			f.Close()
			return func() { os.Remove(lockPath); unlock() }, nil
		}
		if !os.IsExist(err) {
			unlock()
			return nil, fmt.Errorf("supervise: checkpoint lock: %w", err)
		}
		if time.Now().After(deadline) {
			// The holder is gone (crashed mid-save); break the lock. The
			// epoch check below still protects against its stale write
			// racing ours, and the rename keeps the file atomic.
			os.Remove(lockPath)
			continue
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// storedEpoch reads just the epoch header of an existing entry;
// (0, false) when the file does not exist or is unreadable.
func (d *DirStore) storedEpoch(path string) (uint64, bool) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return 0, false
	}
	epoch, ok := parseEpochHeader(strings.TrimSuffix(line, "\n"))
	return epoch, ok
}

func parseEpochHeader(line string) (uint64, bool) {
	const prefix = "epoch "
	if !strings.HasPrefix(line, prefix) {
		return 0, false
	}
	epoch, err := strconv.ParseUint(line[len(prefix):], 10, 64)
	if err != nil {
		return 0, false
	}
	return epoch, true
}

// Save implements CheckpointStore with the fencing check under the
// key's lock: read the stored epoch, reject stale writers, then write
// temp + rename so readers never observe a torn file.
func (d *DirStore) Save(key string, epoch uint64, snap *Snapshot) error {
	path := d.path(key)
	release, err := d.lock(path)
	if err != nil {
		return err
	}
	defer release()

	if stored, ok := d.storedEpoch(path); ok && stored > epoch {
		return &ErrFenced{Key: key, Epoch: epoch, Stored: stored}
	}
	tmp, err := os.CreateTemp(d.dir, "ckpt-*.tmp")
	if err != nil {
		return fmt.Errorf("supervise: checkpoint save: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := fmt.Fprintf(tmp, "epoch %d\n", epoch); err != nil {
		tmp.Close()
		return fmt.Errorf("supervise: checkpoint save: %w", err)
	}
	if err := snap.Encode(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("supervise: checkpoint save: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("supervise: checkpoint save: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("supervise: checkpoint save: %w", err)
	}
	return nil
}

// Load implements CheckpointStore.
func (d *DirStore) Load(key string) (*Snapshot, uint64, error) {
	f, err := os.Open(d.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("supervise: checkpoint load: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	line, err := br.ReadString('\n')
	if err != nil {
		return nil, 0, fmt.Errorf("supervise: checkpoint load: %w", snapErrf("missing epoch header"))
	}
	epoch, ok := parseEpochHeader(strings.TrimSuffix(line, "\n"))
	if !ok {
		return nil, 0, fmt.Errorf("supervise: checkpoint load: %w", snapErrf("malformed epoch header %q", line))
	}
	snap, err := DecodeSnapshot(br)
	if err != nil {
		return nil, 0, fmt.Errorf("supervise: checkpoint load: %w", err)
	}
	return snap, epoch, nil
}

// Delete implements CheckpointStore with the same fencing check as
// Save, under the key's lock.
func (d *DirStore) Delete(key string, epoch uint64) error {
	path := d.path(key)
	release, err := d.lock(path)
	if err != nil {
		return err
	}
	defer release()
	if stored, ok := d.storedEpoch(path); ok && stored > epoch {
		return &ErrFenced{Key: key, Epoch: epoch, Stored: stored}
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("supervise: checkpoint delete: %w", err)
	}
	return nil
}
