package relation

import (
	"testing"

	"ptx/internal/value"
)

// TestSortedCacheInvalidation: Sorted/Tuples/Each reuse one cached
// order until a mutation, and every mutator drops it.
func TestSortedCacheInvalidation(t *testing.T) {
	r := FromRows([]string{"b"}, []string{"a"})
	s1 := r.Sorted()
	if len(s1) != 2 || s1[0][0] != "a" || s1[1][0] != "b" {
		t.Fatalf("sorted order wrong: %v", s1)
	}
	s2 := r.Sorted()
	if &s1[0] != &s2[0] {
		t.Fatal("second Sorted call did not reuse the cache")
	}
	// A duplicate Add is a set-level no-op and must keep the cache.
	r.Add(value.Tuple{"a"})
	if s3 := r.Sorted(); &s1[0] != &s3[0] {
		t.Fatal("no-op Add dropped the sorted cache")
	}
	r.Add(value.Tuple{"0"})
	s4 := r.Sorted()
	if len(s4) != 3 || s4[0][0] != "0" {
		t.Fatalf("post-Add order wrong: %v", s4)
	}
	r.Remove(value.Tuple{"0"})
	if got := r.Sorted(); len(got) != 2 || got[0][0] != "a" {
		t.Fatalf("post-Remove order wrong: %v", got)
	}
	if grew := r.UnionWith(FromRows([]string{"c"})); !grew {
		t.Fatal("union should grow")
	}
	if got := r.Sorted(); len(got) != 3 || got[2][0] != "c" {
		t.Fatalf("post-Union order wrong: %v", got)
	}
	// Tuples returns a private copy: mutating it must not corrupt the
	// shared cache.
	ts := r.Tuples()
	ts[0], ts[2] = ts[2], ts[0]
	if got := r.Sorted(); got[0][0] != "a" {
		t.Fatalf("Tuples copy leaked into the cache: %v", got)
	}
}

// TestActiveDomainCache: the cached adom is reused and invalidated by
// mutation.
func TestActiveDomainCache(t *testing.T) {
	r := FromRows([]string{"b", "a"})
	d1 := r.ActiveDomain()
	d2 := r.ActiveDomain()
	if len(d1) != 2 || &d1[0] != &d2[0] {
		t.Fatalf("adom not cached: %v vs %v", d1, d2)
	}
	r.Insert(value.Tuple{"c", "a"})
	if d := r.ActiveDomain(); len(d) != 3 {
		t.Fatalf("adom stale after Insert: %v", d)
	}
	r.Delete(value.Tuple{"c", "a"})
	if d := r.ActiveDomain(); len(d) != 2 {
		t.Fatalf("adom stale after Delete: %v", d)
	}
}

// TestColumnsLayout: the columnar cache matches the sorted row order
// and is invalidated by mutation.
func TestColumnsLayout(t *testing.T) {
	r := FromRows([]string{"b", "2"}, []string{"a", "1"})
	cols := r.Columns()
	if len(cols) != 2 || len(cols[0]) != 2 {
		t.Fatalf("columns shape wrong: %v", cols)
	}
	// Canonical row order is ("a","1") then ("b","2"), so column 0 is
	// [a b] and column 1 is [1 2].
	if cols[0][0] != "a" || cols[0][1] != "b" || cols[1][0] != "1" || cols[1][1] != "2" {
		t.Fatalf("columns content wrong: %v (sorted %v)", cols, r.Sorted())
	}
	r.Insert(value.Tuple{"0", "9"})
	cols = r.Columns()
	if len(cols[0]) != 3 || cols[0][0] != "0" {
		t.Fatalf("columns stale after Insert: %v", cols)
	}
}

// TestLookupIndexMaintenance: the column index is built lazily and
// maintained through tuple-level mutation, including Instance.Apply.
func TestLookupIndexMaintenance(t *testing.T) {
	s := NewSchema().MustDeclare("E", 2)
	inst := NewInstance(s)
	inst.Add("E", "a", "b")
	inst.Add("E", "a", "c")
	inst.Add("E", "b", "c")
	e := inst.Rel("E")

	if got := e.Lookup(0, "a"); len(got) != 2 {
		t.Fatalf("Lookup(0,a) = %v", got)
	}
	if got := e.Lookup(1, "c"); len(got) != 2 {
		t.Fatalf("Lookup(1,c) = %v", got)
	}

	d := (&Delta{}).Insert("E", "a", "z").Delete("E", "a", "b")
	if _, err := inst.Apply(d); err != nil {
		t.Fatal(err)
	}
	if got := e.Lookup(0, "a"); len(got) != 2 {
		t.Fatalf("Lookup(0,a) after delta = %v", got)
	}
	found := false
	for _, tu := range e.Lookup(0, "a") {
		if tu[1] == "z" {
			found = true
		}
		if tu[1] == "b" {
			t.Fatalf("deleted tuple still indexed: %v", tu)
		}
	}
	if !found {
		t.Fatal("inserted tuple missing from index")
	}
	if got := e.Lookup(1, "z"); len(got) != 1 {
		t.Fatalf("Lookup(1,z) = %v (index for col 1 not maintained)", got)
	}
	if got := e.Lookup(0, "nope"); len(got) != 0 {
		t.Fatalf("Lookup(0,nope) = %v", got)
	}
}
