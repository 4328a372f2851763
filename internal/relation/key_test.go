package relation

import (
	"math/rand"
	"sync"
	"testing"

	"ptx/internal/value"
)

// TestKeyOrderInsensitive: Key is a canonical fingerprint of the SET of
// tuples — insertion order must never show through. (Sibling order in
// the transducer is a separate mechanism: it is fixed by the domain
// order on group prefixes when children are created, before register
// fingerprints are ever compared; see pt.Config.)
func TestKeyOrderInsensitive(t *testing.T) {
	rows := [][]string{{"b", "2"}, {"a", "1"}, {"c", "3"}, {"a", "2"}}
	rng := rand.New(rand.NewSource(7))
	want := FromRows(rows...).Key()
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(len(rows))
		r := New(2)
		for _, i := range perm {
			r.Add(value.Tuple{value.V(rows[i][0]), value.V(rows[i][1])})
		}
		if got := r.Key(); got != want {
			t.Fatalf("insertion order %v changed the key:\n got  %q\n want %q", perm, got, want)
		}
	}
}

// TestKeyAgreesWithEqual: Key(r) == Key(o) iff r.Equal(o), across
// arities, including the empty-relation corner (arity is part of the
// key, so empty relations of different arities stay distinct).
func TestKeyAgreesWithEqual(t *testing.T) {
	rels := []*Relation{
		New(0),
		New(1),
		New(2),
		FromRows([]string{"a"}),
		FromRows([]string{"a"}, []string{"b"}),
		FromRows([]string{"a", "b"}),
		FromRows([]string{"ab"}),       // vs {"a","b"}: arity tells them apart
		FromRows([]string{"a;b"}),      // separator chars in values
		FromRows([]string{"a:", "1b"}), // boundary-shifting pair 1
		FromRows([]string{"a", ":1b"}), // boundary-shifting pair 2
		FromTuples(0, value.Tuple{}),   // the nonempty arity-0 relation {()}
	}
	for i, r := range rels {
		for j, o := range rels {
			eq := r.Arity() == o.Arity() && r.Equal(o)
			if (r.Key() == o.Key()) != eq {
				t.Errorf("rels[%d] vs rels[%d]: Key collision/mismatch (equal=%v)\n %q\n %q",
					i, j, eq, r.Key(), o.Key())
			}
		}
	}
}

// TestKeyInvalidatedByMutation: every mutating method must drop the
// cached fingerprint.
func TestKeyInvalidatedByMutation(t *testing.T) {
	r := FromRows([]string{"a"})
	k0 := r.Key()

	r.Add(value.Tuple{"b"})
	k1 := r.Key()
	if k1 == k0 {
		t.Fatal("Add did not invalidate the fingerprint")
	}
	r.Remove(value.Tuple{"b"})
	if r.Key() != k0 {
		t.Fatal("Remove did not restore the original fingerprint")
	}
	grew := r.UnionWith(FromRows([]string{"c"}))
	if !grew || r.Key() == k0 {
		t.Fatal("UnionWith did not invalidate the fingerprint")
	}
	// A no-op union keeps the cached key valid.
	before := r.Key()
	if r.UnionWith(FromRows([]string{"c"})) {
		t.Fatal("union with a subset should not grow")
	}
	if r.Key() != before {
		t.Fatal("no-op UnionWith changed the fingerprint")
	}
	if r.Clone().Key() != r.Key() {
		t.Fatal("clone must fingerprint identically")
	}
}

// TestKeyConcurrentReaders: parallel transducer workers fingerprint
// shared register relations concurrently; Key must be race-free for
// concurrent readers (run under -race in CI), for a hashed relation
// and for a sealed one, which has no hash set for readers to lean on.
func TestKeyConcurrentReaders(t *testing.T) {
	rows := [][]string{{"c", "3"}, {"a", "1"}, {"b", "2"}, {"a", "1"}}
	sealed := make([]value.Tuple, len(rows))
	for i, row := range rows {
		sealed[i] = value.Tuple{value.V(row[0]), value.V(row[1])}
	}
	for name, r := range map[string]*Relation{"hashed": FromRows(rows...), "sealed": Build(2, sealed)} {
		want := FromRows(rows...).Key()
		probe := value.Tuple{"b", "2"}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					if r.Key() != want || !r.Contains(probe) || r.Len() != 3 {
						panic(name + ": fingerprint changed under concurrent reads")
					}
				}
			}()
		}
		wg.Wait()
	}
}
