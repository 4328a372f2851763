package eval

import (
	"slices"
	"strconv"
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
// fixed database the pair (query identity, register fingerprint) is a
// sound cache key. The relation-store families of Proposition 1 revisit
// the same configuration at exponentially many nodes, which is exactly
// where the memo pays off.
//
// Contract:
//
//   - one Memo serves evaluations over ONE immutable database instance
//     (in pt, the memo is per-run and dropped with the run);
//   - cached relations are returned by reference and must be treated as
//     immutable by every caller, and so must everything derived and
//     cached on them: pt regroups a hit through
//     relation.GroupByPrefix, so every hit hands out the same child
//     register objects;
//   - failed evaluations are never stored (see EvalQueryMemo), so a
//     canceled, budget-exhausted or fault-injected run cannot poison
//     the cache for concurrently running siblings.
type Memo struct {
	mu  sync.Mutex
	lru *lru.Cache[memoKey, *relation.Relation]
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
	m.lru = lru.New[memoKey, *relation.Relation](capacity, func(memoKey, *relation.Relation) {
		m.evictions.Add(1)
	})
	return m
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
	m.lru = lru.New[memoKey, *relation.Relation](m.cap, func(memoKey, *relation.Relation) {
		m.evictions.Add(1)
	})
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

// memoKey is a cache key: a query's pointer (a validated transducer's
// queries are fixed objects) and a register fingerprint, compared field
// by field, so building one allocates nothing.
type memoKey struct {
	q   *logic.Query
	reg string
}

// Get returns the cached result of q against a register with the given
// fingerprint, counting a hit or miss.
func (m *Memo) Get(q *logic.Query, regFP string) (*relation.Relation, bool) {
	m.mu.Lock()
	var (
		rel *relation.Relation
		ok  bool
	)
	if m.syncLocked() {
		rel, ok = m.lru.Get(memoKey{q, regFP})
	}
	m.mu.Unlock()
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return rel, ok
}

// Put stores a successful result. Callers must never store a result
// produced by a failed (canceled, budget-exhausted, fault-injected)
// evaluation.
func (m *Memo) Put(q *logic.Query, regFP string, rel *relation.Relation) {
	m.mu.Lock()
	// A Put that races a mutation of the bound instance was computed
	// against a database state we can no longer identify — drop it.
	if m.syncLocked() {
		m.lru.Put(memoKey{q, regFP}, rel)
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

// extraFingerprint canonically fingerprints the environment's extra
// relations (registers, fixpoint stages) — the only evaluation inputs
// that vary across nodes of one run. The extras are kept sorted by
// name, so the encoding is deterministic; each component is
// self-delimiting.
func (e *Env) extraFingerprint() string {
	if len(e.extra) == 0 {
		return ""
	}
	var b []byte
	for _, x := range e.extra {
		b = strconv.AppendInt(b, int64(len(x.name)), 10)
		b = append(b, ':')
		b = append(b, x.name...)
		k := x.rel.Key()
		b = strconv.AppendInt(b, int64(len(k)), 10)
		b = append(b, ':')
		b = append(b, k...)
	}
	return string(b)
}

// EvalQueryMemo is EvalQuery through a memo: it returns the cached
// result when the (query, extra-relation fingerprint) pair has been
// evaluated before, and evaluates-then-stores otherwise. Errors are
// returned without caching. The returned relation is shared with the
// memo and must not be mutated.
func EvalQueryMemo(q *logic.Query, env *Env, m *Memo) (*relation.Relation, error) {
	fp := env.extraFingerprint()
	if rel, ok := m.Get(q, fp); ok {
		return rel, nil
	}
	rel, err := EvalQuery(q, env)
	if err != nil {
		return nil, err
	}
	m.Put(q, fp, rel)
	return rel, nil
}
