// Package relation implements finite relations over the data domain,
// relational schemas, and database instances — the source side of a
// publishing transducer and the register contents of generated trees.
//
// Relations are sets (no duplicates) of fixed-arity tuples with
// deterministic sorted iteration, which underpins the unique-output
// guarantee of Proposition 1(1).
package relation

import (
	"fmt"
	"hash/maphash"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"ptx/internal/value"
)

// Relation is a finite set of tuples of a fixed arity.
//
// Its canonical form is the sorted tuple slice (Sorted): the order ≤ of
// the paper extended to tuples. A relation built in bulk (Build, and
// every GroupByPrefix group) stores only that slice and is "sealed";
// one built tuple by tuple (New, FromTuples, FromRows) stores a hash set
// keyed by Tuple.Key. The hash set is built from the sorted slice on
// the first mutation and never by a read, so every read works on
// whichever form is present. Everything else — the fingerprint (Key),
// the hash (Hash), the sorted slice of a hashed relation, the active
// domain, the columnar layout, the prefix grouping and the per-column
// secondary indexes (Lookup) — is built lazily and published
// atomically, so concurrent READERS (runs whose trees share registers
// through one query memo) are race-free. Mutation is not concurrency-safe: it
// invalidates the derived structures and maintains built indexes in
// place, including for deltas applied through Instance.Apply.
type Relation struct {
	arity int
	// tuples is the hash set; nil while the relation is sealed, in which
	// case sorted holds the tuples. Only mutators (via set) build it.
	tuples map[string]value.Tuple
	// fp caches the canonical fingerprint of Key; nil means "not
	// computed". Mutators clear it.
	fp atomic.Pointer[string]
	// hash caches Hash; 0 means "not computed". Mutators clear it.
	hash atomic.Uint64
	// sorted holds the canonical order: the contents of a sealed
	// relation, or a cache over the hash set. The slice is shared and
	// never mutated after publication.
	sorted atomic.Pointer[[]value.Tuple]
	// adom caches ActiveDomain.
	adom atomic.Pointer[[]value.V]
	// cols caches the columnar layout of the sorted order.
	cols atomic.Pointer[[][]value.V]
	// groups caches the last GroupByPrefix result.
	groups atomic.Pointer[grouping]
	// idx holds the per-column secondary indexes that have been built
	// (nil slots = column not indexed yet). Readers build missing
	// columns copy-on-write and publish with CompareAndSwap; mutators
	// update built columns they own in place (ownIndex).
	idx atomic.Pointer[colIndex]
}

// colIndex is the secondary-index set: one value→tuples map per
// indexed column. A shared set (see Clone) is never written.
type colIndex struct {
	cols            []map[value.V][]value.Tuple
	shared, clipped bool
}

// grouping is one cached GroupByPrefix result: the groups for prefix
// width k.
type grouping struct {
	k      int
	groups []*Relation
}

// touch invalidates every derived structure after a mutation except
// the secondary indexes, which mutators maintain incrementally.
func (r *Relation) touch() {
	r.fp.Store(nil)
	r.hash.Store(0)
	r.sorted.Store(nil)
	r.adom.Store(nil)
	r.cols.Store(nil)
	r.groups.Store(nil)
}

// set returns the hash set, building it from the sorted slice when the
// relation is sealed. Only mutators call it.
func (r *Relation) set() map[string]value.Tuple {
	if r.tuples == nil {
		s := *r.sorted.Load()
		r.tuples = make(map[string]value.Tuple, len(s))
		for _, t := range s {
			r.tuples[t.Key()] = t
		}
	}
	return r.tuples
}

// each calls f for every tuple in storage order — the hash set's when
// it is built, the sorted slice's otherwise — and stops early if f
// returns false. It builds nothing, so concurrent readers may use it.
func (r *Relation) each(f func(value.Tuple) bool) {
	if r.tuples == nil {
		for _, t := range *r.sorted.Load() {
			if !f(t) {
				return
			}
		}
		return
	}
	for _, t := range r.tuples {
		if !f(t) {
			return
		}
	}
}

// New returns an empty relation of the given arity.
func New(arity int) *Relation {
	if arity < 0 {
		panic("relation: negative arity")
	}
	return &Relation{arity: arity, tuples: make(map[string]value.Tuple)}
}

// Build returns the sealed relation of the given arity holding rows.
// It takes ownership of rows: the slice is sorted in place, adjacent
// duplicates are dropped, and what remains becomes the relation's
// sorted order, with no hash set until the first mutation. Callers
// must never pass a slice shared with another relation (such as
// another relation's Sorted), and must not modify rows or its tuples
// afterwards.
func Build(arity int, rows []value.Tuple) *Relation {
	if arity < 0 {
		panic("relation: negative arity")
	}
	for _, t := range rows {
		if len(t) != arity {
			panic(fmt.Sprintf("relation: arity mismatch: tuple %v into arity-%d relation", t, arity))
		}
	}
	value.SortTuples(rows)
	n := 0
	for _, t := range rows {
		if n == 0 || !value.Equal(rows[n-1], t) {
			rows[n] = t
			n++
		}
	}
	// One object holds the relation and its sorted slice header.
	s := &sealed{rows: rows[:n:n]}
	s.arity = arity
	s.sorted.Store(&s.rows)
	return &s.Relation
}

// sealed is the allocation behind a Build relation.
type sealed struct {
	Relation
	rows []value.Tuple
}

// BuildOne returns the sealed relation holding one tuple, a copy of t,
// which must have width at most 3. The relation, its one-tuple sorted
// slice and the tuple's cells are one allocation.
func BuildOne(t value.Tuple) *Relation {
	if len(t) > 3 {
		panic(fmt.Sprintf("relation: BuildOne of a width-%d tuple", len(t)))
	}
	s := &sealedOne{}
	n := copy(s.cells[:], t)
	s.row[0] = s.cells[:n:n]
	s.rows = s.row[:]
	s.arity = n
	s.sorted.Store(&s.rows)
	return &s.Relation
}

// sealedOne is the allocation behind a BuildOne relation.
type sealedOne struct {
	sealed
	row   [1]value.Tuple
	cells [3]value.V
}

// FromTuples builds a relation of the given arity containing ts.
func FromTuples(arity int, ts ...value.Tuple) *Relation {
	r := New(arity)
	for _, t := range ts {
		r.Add(t)
	}
	return r
}

// FromRows builds a relation from rows of strings; all rows must share
// one arity, which becomes the relation's arity. FromRows panics on
// ragged input (it is intended for literals in tests and examples).
func FromRows(rows ...[]string) *Relation {
	if len(rows) == 0 {
		panic("relation: FromRows needs at least one row; use New for empty relations")
	}
	r := New(len(rows[0]))
	for _, row := range rows {
		t := make(value.Tuple, len(row))
		for i, s := range row {
			t[i] = value.V(s)
		}
		r.Add(t)
	}
	return r
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of tuples.
func (r *Relation) Len() int {
	if r.tuples == nil {
		return len(*r.sorted.Load())
	}
	return len(r.tuples)
}

// Empty reports whether the relation has no tuples.
func (r *Relation) Empty() bool { return r.Len() == 0 }

// Add inserts t, which must match the relation's arity. Adding a tuple
// that is already present is a no-op and keeps every cached structure
// valid.
func (r *Relation) Add(t value.Tuple) {
	r.Insert(t)
}

// indexInsert appends t to every built column index.
func (r *Relation) indexInsert(t value.Tuple) {
	ix := r.ownIndex()
	if ix == nil {
		return
	}
	for c, m := range ix.cols {
		if m != nil {
			m[t[c]] = append(m[t[c]], t)
		}
	}
}

// indexDelete removes t from every built column index, replacing a
// bucket that may share its array (see ownIndex) by a fresh one.
func (r *Relation) indexDelete(t value.Tuple) {
	ix := r.ownIndex()
	if ix == nil {
		return
	}
	for c, m := range ix.cols {
		if m == nil {
			continue
		}
		bucket := m[t[c]]
		i := slices.IndexFunc(bucket, func(bt value.Tuple) bool { return value.Equal(bt, t) })
		switch {
		case i < 0:
		case len(bucket) == 1:
			delete(m, t[c])
		case !ix.clipped || cap(bucket) > len(bucket):
			bucket[i] = bucket[len(bucket)-1]
			m[t[c]] = bucket[:len(bucket)-1]
		default:
			m[t[c]] = slices.Concat(bucket[:i], bucket[i+1:])
		}
	}
}

// ownIndex returns the built column indexes for a mutator to write,
// first replacing a shared set by a clipped copy, whose buckets keep
// their arrays without spare capacity, so appending reallocates: a
// bucket may share its array only if its set is clipped and it is full.
func (r *Relation) ownIndex() *colIndex {
	ix := r.idx.Load()
	if ix == nil || !ix.shared {
		return ix
	}
	own := &colIndex{cols: make([]map[value.V][]value.Tuple, len(ix.cols)), clipped: true}
	for c, m := range ix.cols {
		if m == nil {
			continue
		}
		own.cols[c] = make(map[value.V][]value.Tuple, len(m))
		for v, b := range m {
			own.cols[c][v] = slices.Clip(b)
		}
	}
	r.idx.Store(own)
	return own
}

// Key returns a canonical fingerprint of the relation: an injective
// encoding of (arity, tuple set) that is identical for equal relations
// regardless of insertion order. Two relations r, o of any arities
// satisfy r.Key() == o.Key() iff r.Equal(o).
//
// This is the string register fingerprint: the checkpoint file spells
// a configuration with it (supervise's configKey). In memory, runs,
// incremental repair and the query memo test register identity with
// Hash confirmed by Equal (pt.Config, eval.Memo). It
// deliberately forgets insertion order (registers are SETS — Section 2 of the paper),
// while sibling order in the output tree is fixed separately by the
// domain order ≤ on tuples at grouping time (see GroupByPrefix).
// It is the arity followed by the length-prefixed encoding of every
// tuple (Tuple.AppendKey, each closed by ';') in the canonical sorted
// order, so it is O(n) once the relation is sorted. The fingerprint is
// cached until the next mutation.
func (r *Relation) Key() string {
	if p := r.fp.Load(); p != nil {
		return *p
	}
	s := r.Sorted()
	n := 8
	for _, t := range s {
		for _, v := range t {
			n += len(v) + 3
		}
		n++
	}
	b := make([]byte, 0, n)
	b = strconv.AppendInt(b, int64(r.arity), 10)
	b = append(b, '|')
	for _, t := range s {
		b = t.AppendKey(b)
		b = append(b, ';')
	}
	k := string(b)
	r.fp.Store(&k)
	return k
}

// hashSeed seeds every Hash. It is drawn once per process, so hashes
// compare within a process and are never persisted (Key is the
// persisted form).
var hashSeed = maphash.MakeSeed()

// Hash returns a 64-bit hash of the relation's arity and tuple set:
// every value of the canonical sorted order hashed on its own by
// hash/maphash and folded into a running word, with the arity folded
// first and a marker after each tuple, so neither a value boundary
// (fixed by the arity) nor a tuple boundary can shift. Equal relations
// hash equally regardless of insertion order; unequal ones collide with
// probability about 2⁻⁶⁴, so a caller that needs identity confirms a
// match with Equal. The hash is cached until the next mutation. It
// allocates nothing on a sealed relation or once Sorted is cached.
func (r *Relation) Hash() uint64 {
	if h := r.hash.Load(); h != 0 {
		return h
	}
	const tupleEnd = 0x2545f4914f6cdd1d
	h := foldHash(0, uint64(r.arity))
	for _, t := range r.Sorted() {
		for _, v := range t {
			h = foldHash(h, maphash.String(hashSeed, string(v)))
		}
		h = foldHash(h, tupleEnd)
	}
	if h == 0 {
		h = 1 // 0 marks an empty cache
	}
	r.hash.Store(h)
	return h
}

// foldHash folds the word x into the running hash h. Each step is a
// bijection of h for a fixed x, and the xor-shift spreads the high
// bits of the product back down, so the order of the folded words
// matters.
func foldHash(h, x uint64) uint64 {
	h = (h ^ x) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// Contains reports whether t is in the relation: a hash lookup when the
// hash set is built, a binary search of the sorted slice otherwise.
func (r *Relation) Contains(t value.Tuple) bool {
	if r.tuples != nil {
		var buf [64]byte // the key of a short tuple is built without allocating
		_, ok := r.tuples[string(t.AppendKey(buf[:0]))]
		return ok
	}
	s := *r.sorted.Load()
	i := sort.Search(len(s), func(i int) bool { return value.CompareTuples(s[i], t) >= 0 })
	return i < len(s) && value.Equal(s[i], t)
}

// Remove deletes t if present.
func (r *Relation) Remove(t value.Tuple) {
	r.Delete(t)
}

// Sorted returns the tuples in the canonical sorted order. The slice
// is cached until the next mutation and shared between callers: it
// must be treated as immutable. Use Tuples for a private copy.
func (r *Relation) Sorted() []value.Tuple {
	if p := r.sorted.Load(); p != nil {
		return *p
	}
	// Not sealed, so the hash set is built.
	out := make([]value.Tuple, 0, len(r.tuples))
	for _, t := range r.tuples {
		out = append(out, t)
	}
	value.SortTuples(out)
	r.sorted.Store(&out)
	return out
}

// Tuples returns a fresh slice of all tuples in the canonical sorted
// order. The sort itself is cached (see Sorted); only the slice header
// array is copied, so callers may append or reorder freely.
func (r *Relation) Tuples() []value.Tuple {
	s := r.Sorted()
	out := make([]value.Tuple, len(s))
	copy(out, s)
	return out
}

// Each calls f for every tuple in sorted order; it stops early if f
// returns false.
func (r *Relation) Each(f func(value.Tuple) bool) {
	for _, t := range r.Sorted() {
		if !f(t) {
			return
		}
	}
}

// Columns returns the relation's tuples in columnar layout: one slice
// per column, rows aligned with Sorted. The layout is cached until the
// next mutation and shared between callers; it must be treated as
// immutable. Column-major scans touch only the bytes a predicate
// needs, which is what the compiled-plan executor's constant filters
// iterate.
func (r *Relation) Columns() [][]value.V {
	if p := r.cols.Load(); p != nil {
		return *p
	}
	s := r.Sorted()
	out := make([][]value.V, r.arity)
	for c := range out {
		col := make([]value.V, len(s))
		for i, t := range s {
			col[i] = t[c]
		}
		out[c] = col
	}
	r.cols.Store(&out)
	return out
}

// GroupByPrefix splits r into one relation per distinct k-column
// prefix, in the canonical order of the prefixes: each group holds the
// tuples of r that share its prefix, at r's arity. When every tuple
// shares one k-prefix (always when k = 0) the result is [r] itself, an
// empty relation yields nil, and k must not exceed the arity. Every
// other group is sealed: its tuples are a run of r's sorted slice,
// with no hash set. The result is cached until the next
// mutation (one prefix width at a time) and shared between callers,
// groups included: the slice and every group must be treated as
// immutable. Callers that group the same relation repeatedly — the
// transducer regrouping a memoized rule-query result — therefore get
// the same group objects, hashes already cached, every time.
func (r *Relation) GroupByPrefix(k int) []*Relation {
	if k < 0 || k > r.arity {
		panic(fmt.Sprintf("relation: group prefix %d out of range for arity %d", k, r.arity))
	}
	if r.Empty() {
		return nil
	}
	if g := r.groups.Load(); g != nil && g.k == k {
		return g.groups
	}
	g := &grouping{k: k}
	if r.OneGroup(k) {
		g.groups = []*Relation{r}
	} else {
		g.groups = prefixRuns(r.Sorted(), r.arity, k)
	}
	r.groups.Store(g)
	return g.groups
}

// OneGroup reports whether r is non-empty and all its tuples share one
// k-prefix (always when k = 0), that is, whether GroupByPrefix(k) is
// [r]. It builds and caches no grouping. k beyond the arity is false.
func (r *Relation) OneGroup(k int) bool {
	if k > r.arity || r.Empty() {
		return false
	}
	// The sorted order is lexicographic, so when the first and last
	// tuples share the prefix every tuple does.
	s := r.Sorted()
	return samePrefix(s[0], s[len(s)-1], k)
}

// prefixRuns splits sorted tuples into one sealed relation per run of
// equal k-prefixes. The sorted order is lexicographic, so tuples
// sharing a k-prefix are adjacent and the prefixes arrive in canonical
// order: a group ends where the prefix changes. Each group's sorted
// slice is its run of s, so no tuple is copied or hashed, and the
// groups and their run headers are two slabs, not one object each.
func prefixRuns(s []value.Tuple, arity, k int) []*Relation {
	n := 1
	for i := 1; i < len(s); i++ {
		if !samePrefix(s[i-1], s[i], k) {
			n++
		}
	}
	groups := make([]Relation, n)
	runs := make([][]value.Tuple, n)
	out := make([]*Relation, n)
	for g, i := 0, 0; i < len(s); g++ {
		j := i + 1
		for j < len(s) && samePrefix(s[i], s[j], k) {
			j++
		}
		runs[g] = s[i:j:j]
		groups[g].arity = arity
		groups[g].sorted.Store(&runs[g])
		out[g] = &groups[g]
		i = j
	}
	return out
}

func samePrefix(a, b value.Tuple, k int) bool {
	for i := 0; i < k; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Lookup returns the tuples whose column col equals v, backed by a
// secondary column→tuples index. The index for col is built on first
// use and maintained incrementally by every mutator (Add, Remove,
// Insert, Delete, UnionWith — and therefore by deltas applied through
// Instance.Apply) and carried through Clone, so repeated lookups after
// small deltas never re-scan the relation. The returned slice is shared
// with the index and must not be modified; its order is unspecified.
func (r *Relation) Lookup(col int, v value.V) []value.Tuple {
	if col < 0 || col >= r.arity {
		panic(fmt.Sprintf("relation: lookup column %d out of range for arity %d", col, r.arity))
	}
	for {
		ix := r.idx.Load()
		if ix != nil && ix.cols[col] != nil {
			return ix.cols[col][v]
		}
		// Build the missing column copy-on-write and publish; a racing
		// reader building the same column loses the CAS and retries
		// (the published index is immutable from a reader's view).
		ni := &colIndex{cols: make([]map[value.V][]value.Tuple, r.arity)}
		if ix != nil {
			copy(ni.cols, ix.cols)
			ni.shared, ni.clipped = ix.shared, ix.clipped
		}
		m := make(map[value.V][]value.Tuple, r.Len())
		r.each(func(t value.Tuple) bool {
			m[t[col]] = append(m[t[col]], t)
			return true
		})
		ni.cols[col] = m
		if r.idx.CompareAndSwap(ix, ni) {
			return m[v]
		}
	}
}

// EachUnordered calls f for every tuple in an unspecified order; use it
// in order-insensitive hot paths such as joins and grouping.
func (r *Relation) EachUnordered(f func(value.Tuple) bool) { r.each(f) }

// Clone returns an independent copy. Stored tuples are never written in
// place (mutators store clones, Build owns its rows), so the copy shares
// them: maps.Clone copies a hash set, and the sorted slice and the
// built column indexes are shared, the indexes copy-on-write. Clone
// only reads r: a concurrent Lookup's publish fails against the shared
// mark, or is replaced and loses its column.
func (r *Relation) Clone() *Relation {
	c := &Relation{arity: r.arity, tuples: maps.Clone(r.tuples)}
	c.sorted.Store(r.sorted.Load())
	if ix := r.idx.Load(); ix != nil {
		if !ix.shared {
			ix = &colIndex{cols: ix.cols, shared: true}
			r.idx.Store(ix)
		}
		c.idx.Store(ix)
	}
	return c
}

// Equal reports set equality of two relations of the same arity. When
// both sorted forms are present (always for sealed relations) it
// compares them element-wise; otherwise it probes one in the other.
func (r *Relation) Equal(o *Relation) bool {
	if r == o {
		return true
	}
	if r.arity != o.arity {
		return false
	}
	if rs, os := r.sorted.Load(), o.sorted.Load(); rs != nil && os != nil {
		return slices.EqualFunc(*rs, *os, slices.Equal[value.Tuple])
	}
	return r.Len() == o.Len() && r.SubsetOf(o)
}

// SubsetOf reports whether every tuple of r is in o.
func (r *Relation) SubsetOf(o *Relation) bool {
	if r.arity != o.arity {
		return false
	}
	ok := true
	r.each(func(t value.Tuple) bool {
		ok = o.Contains(t)
		return ok
	})
	return ok
}

// UnionWith adds every tuple of o into r and reports whether r grew.
func (r *Relation) UnionWith(o *Relation) bool {
	if r.arity != o.arity {
		panic("relation: union of different arities")
	}
	set := r.set()
	grew := false
	o.each(func(t value.Tuple) bool {
		k := t.Key()
		if _, ok := set[k]; !ok {
			c := t.Clone()
			set[k] = c
			r.indexInsert(c)
			grew = true
		}
		return true
	})
	if grew {
		r.touch()
	}
	return grew
}

// Union returns a fresh relation r ∪ o.
func Union(r, o *Relation) *Relation {
	u := r.Clone()
	u.UnionWith(o)
	return u
}

// Intersect returns a fresh relation r ∩ o.
func Intersect(r, o *Relation) *Relation {
	if r.arity != o.arity {
		panic("relation: intersection of different arities")
	}
	return r.Select(o.Contains)
}

// Difference returns a fresh relation r \ o.
func Difference(r, o *Relation) *Relation {
	if r.arity != o.arity {
		panic("relation: difference of different arities")
	}
	return r.Select(func(t value.Tuple) bool { return !o.Contains(t) })
}

// Product returns the Cartesian product r × o.
func Product(r, o *Relation) *Relation {
	rows := make([]value.Tuple, 0, r.Len()*o.Len())
	r.each(func(a value.Tuple) bool {
		o.each(func(b value.Tuple) bool {
			rows = append(rows, value.Concat(a, b))
			return true
		})
		return true
	})
	return Build(r.arity+o.arity, rows)
}

// Project returns π_cols(r), keeping the listed column indices in order.
func (r *Relation) Project(cols ...int) *Relation {
	for _, c := range cols {
		if c < 0 || c >= r.arity {
			panic(fmt.Sprintf("relation: projection column %d out of range for arity %d", c, r.arity))
		}
	}
	rows := make([]value.Tuple, 0, r.Len())
	r.each(func(t value.Tuple) bool {
		p := make(value.Tuple, len(cols))
		for i, c := range cols {
			p[i] = t[c]
		}
		rows = append(rows, p)
		return true
	})
	return Build(len(cols), rows)
}

// Select returns σ_pred(r) for an arbitrary tuple predicate. The
// result shares r's tuples.
func (r *Relation) Select(pred func(value.Tuple) bool) *Relation {
	var rows []value.Tuple
	r.each(func(t value.Tuple) bool {
		if pred(t) {
			rows = append(rows, t)
		}
		return true
	})
	return Build(r.arity, rows)
}

// SelectEqCols returns the tuples whose columns i and j agree.
func (r *Relation) SelectEqCols(i, j int) *Relation {
	return r.Select(func(t value.Tuple) bool { return t[i] == t[j] })
}

// SelectEqConst returns the tuples whose column i equals v.
func (r *Relation) SelectEqConst(i int, v value.V) *Relation {
	return r.Select(func(t value.Tuple) bool { return t[i] == v })
}

// ActiveDomain returns the sorted set of values occurring in r. The
// result is cached until the next mutation and shared between callers;
// it must be treated as immutable.
func (r *Relation) ActiveDomain() []value.V {
	if p := r.adom.Load(); p != nil {
		return *p
	}
	seen := make(map[value.V]bool)
	r.each(func(t value.Tuple) bool {
		for _, v := range t {
			seen[v] = true
		}
		return true
	})
	out := make([]value.V, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	value.SortValues(out)
	r.adom.Store(&out)
	return out
}

// String renders the relation as {(..),(..)} in sorted order.
func (r *Relation) String() string {
	ts := r.Tuples()
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Schema maps relation names to arities.
type Schema struct {
	arities map[string]int
	names   []string
}

// NewSchema builds a schema from name→arity pairs.
func NewSchema() *Schema {
	return &Schema{arities: make(map[string]int)}
}

// Declare records a relation name with its arity; redeclaring with a
// different arity is an error.
func (s *Schema) Declare(name string, arity int) error {
	if a, ok := s.arities[name]; ok {
		if a != arity {
			return fmt.Errorf("schema: %s redeclared with arity %d (was %d)", name, arity, a)
		}
		return nil
	}
	s.arities[name] = arity
	s.names = append(s.names, name)
	sort.Strings(s.names)
	return nil
}

// MustDeclare is Declare that panics on conflict; for literals.
func (s *Schema) MustDeclare(name string, arity int) *Schema {
	if err := s.Declare(name, arity); err != nil {
		panic(err)
	}
	return s
}

// Arity returns the declared arity of name.
func (s *Schema) Arity(name string) (int, bool) {
	a, ok := s.arities[name]
	return a, ok
}

// Names returns the declared relation names in sorted order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// Instance is a database instance: one relation per schema name.
type Instance struct {
	schema *Schema
	rels   map[string]*Relation
	// version counts effective mutations (Add, SetRel, Apply). It is
	// atomic so concurrent READERS (eval.Memo's staleness guard) are
	// race-free; mutation itself is not concurrency-safe, as for the
	// rest of the type.
	version atomic.Uint64
}

// NewInstance returns an empty instance of schema s (every relation
// empty at its declared arity).
func NewInstance(s *Schema) *Instance {
	inst := &Instance{schema: s, rels: make(map[string]*Relation)}
	for _, n := range s.Names() {
		a, _ := s.Arity(n)
		inst.rels[n] = New(a)
	}
	return inst
}

// Schema returns the instance's schema.
func (i *Instance) Schema() *Schema { return i.schema }

// Rel returns the relation for name; it panics on undeclared names so
// that typos surface immediately.
func (i *Instance) Rel(name string) *Relation {
	r, ok := i.rels[name]
	if !ok {
		panic(fmt.Sprintf("instance: relation %q not in schema", name))
	}
	return r
}

// Lookup returns the relation for name and whether name is a relation
// of this instance, in one map probe.
func (i *Instance) Lookup(name string) (*Relation, bool) {
	r, ok := i.rels[name]
	return r, ok
}

// Has reports whether name is a relation of this instance.
func (i *Instance) Has(name string) bool {
	_, ok := i.rels[name]
	return ok
}

// SetRel replaces the relation stored under name; the arity must match
// the schema.
func (i *Instance) SetRel(name string, r *Relation) {
	a, ok := i.schema.Arity(name)
	if !ok {
		panic(fmt.Sprintf("instance: relation %q not in schema", name))
	}
	if r.Arity() != a {
		panic(fmt.Sprintf("instance: relation %q has arity %d, schema says %d", name, r.Arity(), a))
	}
	i.rels[name] = r
	i.version.Add(1)
}

// Add inserts a tuple given as strings into the named relation.
func (i *Instance) Add(name string, vals ...string) {
	t := make(value.Tuple, len(vals))
	for k, s := range vals {
		t[k] = value.V(s)
	}
	i.Rel(name).Add(t)
	i.version.Add(1)
}

// Clone returns an independent copy sharing the schema.
func (i *Instance) Clone() *Instance {
	c := &Instance{schema: i.schema, rels: make(map[string]*Relation, len(i.rels))}
	for n, r := range i.rels {
		c.rels[n] = r.Clone()
	}
	c.version.Store(i.version.Load())
	return c
}

// Size returns the total number of tuples across all relations.
func (i *Instance) Size() int {
	n := 0
	for _, r := range i.rels {
		n += r.Len()
	}
	return n
}

// ActiveDomain returns the sorted set of values occurring anywhere in
// the instance.
func (i *Instance) ActiveDomain() []value.V {
	parts := make([][]value.V, 0, len(i.rels))
	for _, r := range i.rels {
		parts = append(parts, r.ActiveDomain())
	}
	return value.Union(parts...)
}

// Equal reports whether two instances of the same schema hold the same
// relations.
func (i *Instance) Equal(o *Instance) bool {
	if len(i.rels) != len(o.rels) {
		return false
	}
	for n, r := range i.rels {
		or, ok := o.rels[n]
		if !ok || !r.Equal(or) {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every relation of i is contained in the
// corresponding relation of o (the ⊆ used by monotonicity arguments).
func (i *Instance) SubsetOf(o *Instance) bool {
	for n, r := range i.rels {
		or, ok := o.rels[n]
		if !ok || !r.SubsetOf(or) {
			return false
		}
	}
	return true
}

// String renders the instance deterministically for diagnostics.
func (i *Instance) String() string {
	names := make([]string, 0, len(i.rels))
	for n := range i.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		fmt.Fprintf(&sb, "%s%s\n", n, i.rels[n])
	}
	return sb.String()
}
