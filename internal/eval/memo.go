package eval

import (
	"slices"
	"sync"
	"sync/atomic"

	"ptx/internal/logic"
	"ptx/internal/lru"
	"ptx/internal/relation"
)

// Memo is a bounded, concurrency-safe memoization table for rule-query
// results. A publishing transducer is deterministic: the result of a
// rule query at a node is a function of only (query, register, database)
// — the same argument Proposition 1 uses to bound tree sizes — so over a
// fixed database the pair (query identity, register contents) is a
// sound cache key. The relation-store families of Proposition 1 revisit
// the same configuration at exponentially many nodes, which is exactly
// where the memo pays off.
//
// An entry is filed under the query's pointer and the register's Hash
// and keeps its register; a lookup hits only when the stored register
// is Equal to the probe's, so a hash collision is a miss, never a wrong
// answer.
//
// Contract:
//
//   - one Memo serves evaluations over immutable database instances
//     that agree on every relation its queries read, and on the active
//     domain if one of them reads it (pt makes one per run unless
//     Options.Memo shares one; serve shares one across the versions of a
//     pair between deltas its spec reads, and incr one per view,
//     reconciled when its database changes);
//   - cached relations are returned by reference and must be treated as
//     immutable by every caller, and so must everything derived and
//     cached on them and the registers they are keyed by: pt regroups a
//     hit through relation.GroupByPrefix, so every hit hands out the
//     same child register objects;
//   - callers Put only successful evaluations, so a canceled,
//     budget-exhausted or fault-injected run cannot poison the cache
//     for concurrently running siblings.
type Memo struct {
	mu  sync.Mutex
	lru *lru.Cache[memoKey, memoEntry]
	cap int

	// Staleness guard (see BindInstance): when bound, any version drift
	// of the instance flushes the table before the next Get or Put, so a
	// stale hit after a mutation is impossible even if a caller forgets
	// to invalidate.
	inst    *relation.Instance
	instVer uint64

	hits        atomic.Int64
	misses      atomic.Int64
	evictions   atomic.Int64
	invalidated atomic.Int64
	flushes     atomic.Int64
}

// DefaultMemoSize bounds a memo when the caller passes a non-positive
// capacity. The bound is not preallocated: a memo's memory is
// proportional to the distinct (query, register) configurations it
// has stored (at most 64k), never to tree size.
const DefaultMemoSize = 1 << 16

// NewMemo returns a memo holding at most capacity results (capacity ≤ 0
// selects DefaultMemoSize).
func NewMemo(capacity int) *Memo {
	if capacity <= 0 {
		capacity = DefaultMemoSize
	}
	m := &Memo{cap: capacity}
	m.lru = m.newTable()
	return m
}

// newTable returns an empty table of the memo's capacity whose
// evictions the memo counts.
func (m *Memo) newTable() *lru.Cache[memoKey, memoEntry] {
	return lru.New(m.cap, func(memoKey, memoEntry) { m.evictions.Add(1) })
}

// BindInstance pins the memo to inst at its CURRENT version. From then
// on every Get and Put first compares inst.Version() against the pinned
// version: on drift the whole table is flushed (and a racing Put is
// dropped), making a stale hit after a mutation impossible. Callers that
// invalidate selectively (incr.View) re-pin via BindInstance after
// reconciling, which keeps the surviving entries.
func (m *Memo) BindInstance(inst *relation.Instance) {
	m.mu.Lock()
	m.inst = inst
	if inst != nil {
		m.instVer = inst.Version()
	}
	m.mu.Unlock()
}

// syncLocked enforces the BindInstance contract; it reports whether the
// table was already in sync (false means it was just flushed).
func (m *Memo) syncLocked() bool {
	if m.inst == nil {
		return true
	}
	v := m.inst.Version()
	if v == m.instVer {
		return true
	}
	m.invalidated.Add(int64(m.lru.Len()))
	m.flushes.Add(1)
	m.lru = m.newTable()
	m.instVer = v
	return false
}

// InvalidateQueries drops every entry of the given queries (those a
// delta can change; see pt.Transducer.Readers) and returns how many it
// dropped. Entries of other queries survive and keep their hit rate.
func (m *Memo) InvalidateQueries(qs []*logic.Query) int {
	if len(qs) == 0 {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.lru.RemoveIf(func(k memoKey) bool { return slices.Contains(qs, k.q) })
	m.invalidated.Add(int64(n))
	return n
}

// memoKey files an entry: a query's pointer (a validated transducer's
// queries are fixed objects) and its register's Hash. Building one
// allocates nothing once the register's hash is cached.
type memoKey struct {
	q *logic.Query
	h uint64
}

// memoEntry is a stored result and the register it was computed for,
// which confirms a hit.
type memoEntry struct {
	reg, rel *relation.Relation
}

// Get returns the cached result of q against reg, counting a hit or
// miss. A stored register that shares reg's hash but not its contents
// is a miss.
func (m *Memo) Get(q *logic.Query, reg *relation.Relation) (*relation.Relation, bool) {
	k := memoKey{q, reg.Hash()}
	m.mu.Lock()
	var (
		e  memoEntry
		ok bool
	)
	if m.syncLocked() {
		e, ok = m.lru.Get(k)
	}
	m.mu.Unlock()
	ok = ok && e.reg.Equal(reg)
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return e.rel, ok
}

// Put stores the successful result rel of q against reg, replacing
// whatever is filed under the same query and hash. Callers must never
// store a result produced by a failed (canceled, budget-exhausted,
// fault-injected) evaluation.
func (m *Memo) Put(q *logic.Query, reg, rel *relation.Relation) {
	k := memoKey{q, reg.Hash()}
	m.mu.Lock()
	// A Put that races a mutation of the bound instance was computed
	// against a database state we can no longer identify — drop it.
	if m.syncLocked() {
		m.lru.Put(k, memoEntry{reg, rel})
	}
	m.mu.Unlock()
}

// Stats reports cumulative hit/miss/eviction counts.
func (m *Memo) Stats() (hits, misses, evictions int64) {
	return m.hits.Load(), m.misses.Load(), m.evictions.Load()
}

// InvalidationStats reports the entries dropped by invalidation and by
// version-drift flushes, and how many whole-table flushes occurred.
func (m *Memo) InvalidationStats() (entries, flushes int64) {
	return m.invalidated.Load(), m.flushes.Load()
}
