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
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"ptx/internal/value"
)

// Relation is a finite set of tuples of a fixed arity.
//
// Alongside the tuple store the relation maintains five lazily built,
// mutation-invalidated acceleration structures: the canonical
// fingerprint (Key), the canonical sorted order (Sorted/Tuples/Each),
// the active domain (ActiveDomain), a columnar copy of the sorted
// order (Columns) and the prefix grouping (GroupByPrefix). They are
// atomic so that concurrent READERS (e.g. concurrent runs whose trees
// share registers through one query memo) are race-free; mutation is
// not concurrency-safe, as for the rest of the type. Secondary column→tuples indexes (Lookup) follow the same
// contract and are maintained incrementally by every mutator,
// including deltas applied through Instance.Apply.
type Relation struct {
	arity  int
	tuples map[string]value.Tuple
	// fp caches the canonical fingerprint of Key; nil means "not
	// computed". Mutators clear it.
	fp atomic.Pointer[string]
	// sorted caches the canonical iteration order so Tuples/Each stop
	// re-sorting per call; the cached slice is shared and never mutated
	// after publication.
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
	// update built columns in place (mutation excludes readers).
	idx atomic.Pointer[colIndex]
}

// colIndex is the secondary-index set: one value→tuples map per
// indexed column.
type colIndex struct {
	cols []map[value.V][]value.Tuple
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
	r.sorted.Store(nil)
	r.adom.Store(nil)
	r.cols.Store(nil)
	r.groups.Store(nil)
}

// New returns an empty relation of the given arity.
func New(arity int) *Relation {
	if arity < 0 {
		panic("relation: negative arity")
	}
	return &Relation{arity: arity, tuples: make(map[string]value.Tuple)}
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
func (r *Relation) Len() int { return len(r.tuples) }

// Empty reports whether the relation has no tuples.
func (r *Relation) Empty() bool { return len(r.tuples) == 0 }

// Add inserts t, which must match the relation's arity. Adding a tuple
// that is already present is a no-op and keeps every cached structure
// valid.
func (r *Relation) Add(t value.Tuple) {
	r.Insert(t)
}

// indexInsert appends t to every built column index.
func (r *Relation) indexInsert(t value.Tuple) {
	ix := r.idx.Load()
	if ix == nil {
		return
	}
	for c, m := range ix.cols {
		if m != nil {
			m[t[c]] = append(m[t[c]], t)
		}
	}
}

// indexDelete removes t from every built column index.
func (r *Relation) indexDelete(t value.Tuple) {
	ix := r.idx.Load()
	if ix == nil {
		return
	}
	for c, m := range ix.cols {
		if m == nil {
			continue
		}
		bucket := m[t[c]]
		for i, bt := range bucket {
			if value.Equal(bt, t) {
				bucket[i] = bucket[len(bucket)-1]
				bucket = bucket[:len(bucket)-1]
				break
			}
		}
		if len(bucket) == 0 {
			delete(m, t[c])
		} else {
			m[t[c]] = bucket
		}
	}
}

// Key returns a canonical fingerprint of the relation: an injective
// encoding of (arity, tuple set) that is identical for equal relations
// regardless of insertion order. Two relations r, o of any arities
// satisfy r.Key() == o.Key() iff r.Equal(o).
//
// This is the register fingerprint used by the transducer run loop for
// the ancestor stop condition and the memoization caches: it deliberately
// forgets insertion order (registers are SETS — Section 2 of the paper),
// while sibling order in the output tree is fixed separately by the
// domain order ≤ on tuples at grouping time (see GroupByPrefix).
// The fingerprint is cached until the next mutation; computing it is
// O(n log n) in the number of tuples.
func (r *Relation) Key() string {
	if p := r.fp.Load(); p != nil {
		return *p
	}
	keys := make([]string, 0, len(r.tuples))
	n := 0
	for k := range r.tuples {
		keys = append(keys, k)
		n += len(k) + 1
	}
	sort.Strings(keys)
	b := make([]byte, 0, n+8)
	b = strconv.AppendInt(b, int64(r.arity), 10)
	b = append(b, '|')
	for _, k := range keys {
		b = append(b, k...)
		b = append(b, ';')
	}
	s := string(b)
	r.fp.Store(&s)
	return s
}

// Contains reports whether t is in the relation.
func (r *Relation) Contains(t value.Tuple) bool {
	_, ok := r.tuples[t.Key()]
	return ok
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
// tuples of r that share its prefix, at r's arity. k = 0 yields [r]
// itself and an empty relation yields nil; k must not exceed the
// arity. The result is cached until the next mutation (one prefix
// width at a time) and shared between callers, groups included: the
// slice and every group must be treated as immutable. Callers that
// group the same relation repeatedly — the transducer regrouping a
// memoized rule-query result — therefore get the same group objects,
// fingerprints already cached, every time.
func (r *Relation) GroupByPrefix(k int) []*Relation {
	if k < 0 || k > r.arity {
		panic(fmt.Sprintf("relation: group prefix %d out of range for arity %d", k, r.arity))
	}
	if len(r.tuples) == 0 {
		return nil
	}
	if g := r.groups.Load(); g != nil && g.k == k {
		return g.groups
	}
	out := []*Relation{r}
	if k > 0 {
		out = prefixRuns(r.Sorted(), r.arity, k)
	}
	r.groups.Store(&grouping{k: k, groups: out})
	return out
}

// prefixRuns splits sorted tuples into one relation per run of equal
// k-prefixes. The sorted order is lexicographic, so tuples sharing a
// k-prefix are adjacent and the prefixes arrive in canonical order: a
// group ends where the prefix changes. Each group's tuples are a run
// of s, which becomes the group's own sorted cache.
func prefixRuns(s []value.Tuple, arity, k int) []*Relation {
	var out []*Relation
	for i := 0; i < len(s); {
		j := i + 1
		for j < len(s) && samePrefix(s[i], s[j], k) {
			j++
		}
		g := &Relation{arity: arity, tuples: make(map[string]value.Tuple, j-i)}
		for _, t := range s[i:j] {
			g.tuples[t.Key()] = t
		}
		run := s[i:j:j]
		g.sorted.Store(&run)
		out = append(out, g)
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
// Instance.Apply), so repeated lookups after small deltas never
// re-scan the relation. The returned slice is shared with the index
// and must not be modified; its order is unspecified.
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
		}
		m := make(map[value.V][]value.Tuple, len(r.tuples))
		for _, t := range r.tuples {
			m[t[col]] = append(m[t[col]], t)
		}
		ni.cols[col] = m
		if r.idx.CompareAndSwap(ix, ni) {
			return m[v]
		}
	}
}

// EachUnordered calls f for every tuple in arbitrary (map) order; use it
// in order-insensitive hot paths such as joins and grouping.
func (r *Relation) EachUnordered(f func(value.Tuple) bool) {
	for _, t := range r.tuples {
		if !f(t) {
			return
		}
	}
}

// Clone returns an independent deep copy.
func (r *Relation) Clone() *Relation {
	c := New(r.arity)
	for k, t := range r.tuples {
		c.tuples[k] = t.Clone()
	}
	return c
}

// Equal reports set equality of two relations of the same arity.
func (r *Relation) Equal(o *Relation) bool {
	if r.arity != o.arity || len(r.tuples) != len(o.tuples) {
		return false
	}
	for k := range r.tuples {
		if _, ok := o.tuples[k]; !ok {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every tuple of r is in o.
func (r *Relation) SubsetOf(o *Relation) bool {
	if r.arity != o.arity {
		return false
	}
	for k := range r.tuples {
		if _, ok := o.tuples[k]; !ok {
			return false
		}
	}
	return true
}

// UnionWith adds every tuple of o into r and reports whether r grew.
func (r *Relation) UnionWith(o *Relation) bool {
	if r.arity != o.arity {
		panic("relation: union of different arities")
	}
	grew := false
	for k, t := range o.tuples {
		if _, ok := r.tuples[k]; !ok {
			c := t.Clone()
			r.tuples[k] = c
			r.indexInsert(c)
			grew = true
		}
	}
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
	out := New(r.arity)
	for k, t := range r.tuples {
		if _, ok := o.tuples[k]; ok {
			out.tuples[k] = t.Clone()
		}
	}
	return out
}

// Difference returns a fresh relation r \ o.
func Difference(r, o *Relation) *Relation {
	if r.arity != o.arity {
		panic("relation: difference of different arities")
	}
	out := New(r.arity)
	for k, t := range r.tuples {
		if _, ok := o.tuples[k]; !ok {
			out.tuples[k] = t.Clone()
		}
	}
	return out
}

// Product returns the Cartesian product r × o.
func Product(r, o *Relation) *Relation {
	out := New(r.arity + o.arity)
	for _, a := range r.tuples {
		for _, b := range o.tuples {
			out.Add(value.Concat(a, b))
		}
	}
	return out
}

// Project returns π_cols(r), keeping the listed column indices in order.
func (r *Relation) Project(cols ...int) *Relation {
	out := New(len(cols))
	for _, t := range r.tuples {
		p := make(value.Tuple, len(cols))
		for i, c := range cols {
			if c < 0 || c >= r.arity {
				panic(fmt.Sprintf("relation: projection column %d out of range for arity %d", c, r.arity))
			}
			p[i] = t[c]
		}
		out.Add(p)
	}
	return out
}

// Select returns σ_pred(r) for an arbitrary tuple predicate.
func (r *Relation) Select(pred func(value.Tuple) bool) *Relation {
	out := New(r.arity)
	for _, t := range r.tuples {
		if pred(t) {
			out.Add(t)
		}
	}
	return out
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
	for _, t := range r.tuples {
		for _, v := range t {
			seen[v] = true
		}
	}
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

// Clone returns a deep copy sharing the schema.
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
	seen := make(map[value.V]bool)
	for _, r := range i.rels {
		for _, v := range r.ActiveDomain() {
			seen[v] = true
		}
	}
	out := make([]value.V, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	value.SortValues(out)
	return out
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
