package relation

import (
	"math/rand"
	"sync"
	"testing"

	"ptx/internal/value"
)

// TestHashOrderInsensitive: Hash, like Key, depends on the tuple set,
// never on insertion order.
func TestHashOrderInsensitive(t *testing.T) {
	rows := [][]string{{"b", "2"}, {"a", "1"}, {"c", "3"}, {"a", "2"}}
	rng := rand.New(rand.NewSource(7))
	want := FromRows(rows...).Hash()
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(len(rows))
		r := New(2)
		for _, i := range perm {
			r.Add(value.Tuple{value.V(rows[i][0]), value.V(rows[i][1])})
		}
		if got := r.Hash(); got != want {
			t.Fatalf("insertion order %v changed the hash: %x, want %x", perm, got, want)
		}
	}
}

// TestHashAgreesWithEqual: across the New/Add, Build and GroupByPrefix
// forms, equal relations hash equally and Equal agrees with Key. The
// test relations differ only in ways an unprefixed encoding would
// confuse, so a distinct pair hashing equally is a defect of the
// encoding, not a 2⁻⁶⁴ accident.
func TestHashAgreesWithEqual(t *testing.T) {
	rows := [][]string{{"a", "1"}, {"a", "2"}, {"b", "1"}}
	tuples := func() []value.Tuple {
		out := make([]value.Tuple, len(rows))
		for i, r := range rows {
			out[i] = value.Tuple{value.V(r[0]), value.V(r[1])}
		}
		return out
	}
	grouped := FromRows(rows...).GroupByPrefix(1) // {(a,1),(a,2)}, {(b,1)}
	rels := []*Relation{
		New(0),
		New(1),
		New(2),
		Build(2, nil),
		FromRows(rows...),
		Build(2, tuples()),
		FromRows([]string{"a", "1"}, []string{"a", "2"}),
		grouped[0],
		FromRows([]string{"b", "1"}),
		grouped[1],
		Build(2, []value.Tuple{{"b", "1"}}),
		FromRows([]string{"ab"}), // vs {"a","b"}: arity tells them apart
		FromRows([]string{"a", "b"}),
		FromRows([]string{"a:", "1b"}), // boundary-shifting pair 1
		FromRows([]string{"a", ":1b"}), // boundary-shifting pair 2
		FromTuples(0, value.Tuple{}),   // the nonempty arity-0 relation {()}
	}
	for i, r := range rels {
		for j, o := range rels {
			eq := r.Equal(o)
			if eq != (r.Key() == o.Key()) || eq != o.Equal(r) {
				t.Errorf("rels[%d] vs rels[%d]: Equal %v disagrees with Key or with itself", i, j, eq)
			}
			if (r.Hash() == o.Hash()) != eq {
				t.Errorf("rels[%d] vs rels[%d]: Hash equality %v, Equal %v", i, j, r.Hash() == o.Hash(), eq)
			}
		}
	}
}

// TestHashInvalidatedByMutation: every mutator drops the cached hash,
// and a no-op mutation keeps it.
func TestHashInvalidatedByMutation(t *testing.T) {
	r := Build(1, []value.Tuple{{"a"}})
	h0 := r.Hash()
	steps := []struct {
		name   string
		mutate func()
		same   bool // the relation is back to {a}
	}{
		{"Add", func() { r.Add(value.Tuple{"b"}) }, false},
		{"Remove", func() { r.Remove(value.Tuple{"b"}) }, true},
		{"Insert", func() { r.Insert(value.Tuple{"c"}) }, false},
		{"Delete", func() { r.Delete(value.Tuple{"c"}) }, true},
		{"UnionWith", func() { r.UnionWith(FromRows([]string{"d"})) }, false},
	}
	for _, s := range steps {
		before := r.Hash()
		s.mutate()
		if got := r.Hash(); got == before {
			t.Fatalf("%s did not invalidate the hash", s.name)
		} else if (got == h0) != s.same {
			t.Fatalf("%s: hash %x, pre-mutation-sequence hash %x, want equal %v", s.name, got, h0, s.same)
		}
	}
	before := r.Hash()
	if r.UnionWith(FromRows([]string{"d"})) || r.Insert(value.Tuple{"a"}) || r.Delete(value.Tuple{"z"}) {
		t.Fatal("a no-op mutation reported a change")
	}
	if r.Hash() != before {
		t.Fatal("a no-op mutation changed the hash")
	}

	inst := NewInstance(NewSchema().MustDeclare("R", 1))
	rel := inst.Rel("R")
	h := rel.Hash()
	if _, err := inst.Apply((&Delta{}).Insert("R", "x")); err != nil {
		t.Fatal(err)
	}
	if rel.Hash() == h || rel.Hash() != FromRows([]string{"x"}).Hash() {
		t.Fatal("Instance.Apply left a stale hash")
	}
}

// TestHashConcurrentReaders: runs sharing registers through one memo
// hash them concurrently; Hash and the sorted-form Equal must be
// race-free readers (run under -race in CI).
func TestHashConcurrentReaders(t *testing.T) {
	rows := [][]string{{"c", "3"}, {"a", "1"}, {"b", "2"}, {"a", "1"}}
	sealedRows := make([]value.Tuple, len(rows))
	for i, row := range rows {
		sealedRows[i] = value.Tuple{value.V(row[0]), value.V(row[1])}
	}
	want := FromRows(rows...)
	for name, r := range map[string]*Relation{"hashed": FromRows(rows...), "sealed": Build(2, sealedRows)} {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					if r.Hash() != want.Hash() || !r.Equal(want) {
						panic(name + ": hash changed under concurrent reads")
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestRelationHashAllocs: Hash allocates nothing on a sealed relation
// and nothing once cached. A hashed relation's first Hash allocates
// only its cached sorted slice.
func TestRelationHashAllocs(t *testing.T) {
	rows := make([]value.Tuple, 100)
	for i := range rows {
		rows[i] = value.Tuple{value.Of(i), value.V("v")}
	}
	var sink uint64
	sealed := Build(2, rows)
	first := testing.AllocsPerRun(100, func() {
		sealed.hash.Store(0) // drop the cache: every run is a first Hash
		sink ^= sealed.Hash()
	})
	if first != 0 {
		t.Errorf("first Hash of a sealed relation: %.0f allocs, want 0", first)
	}
	r := FromTuples(2, rows...)
	sink ^= r.Hash()
	if n := testing.AllocsPerRun(100, func() { sink ^= r.Hash() }); n != 0 {
		t.Errorf("second Hash: %.0f allocs, want 0", n)
	}
	_ = sink
}
