package relation

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"ptx/internal/value"
)

// view is everything a reader can observe of a two-column relation:
// the fingerprint, the hash, the sorted tuples, membership of probe,
// and each column index's bucket for every value in 0..4, sorted.
func view(r *Relation, probe value.Tuple) string {
	s := fmt.Sprintf("%s %x %v %v", r.Key(), r.Hash(), r.Sorted(), r.Contains(probe))
	for c := 0; c < r.Arity(); c++ {
		for v := 0; v < 5; v++ {
			b := slices.Clone(r.Lookup(c, value.V(fmt.Sprint(v))))
			value.SortTuples(b)
			s += fmt.Sprintf(" %d=%s:%v", c, fmt.Sprint(v), b)
		}
	}
	return s
}

// pairs returns the arity-2 tuples (a, b) of a "ab" string list.
func pairs(ps ...string) []value.Tuple {
	out := make([]value.Tuple, len(ps))
	for i, p := range ps {
		out[i] = value.Tuple{value.V(p[:1]), value.V(p[1:])}
	}
	return out
}

// TestCloneConcurrentIndependence: an insert and a delete on a clone
// leave its source as it was, and the same on the source leaves the
// clone, for a hashed and a sealed source, with every cache and column
// index built before the clone, after it, or not at all. Each side
// reads exactly what a relation built from its tuples does.
func TestCloneConcurrentIndependence(t *testing.T) {
	base := []string{"01", "02", "11", "23", "30"}
	forms := map[string]func() *Relation{
		"hashed": func() *Relation { return FromTuples(2, pairs(base...)...) },
		"sealed": func() *Relation { return Build(2, pairs(base...)) },
	}
	after := []string{"01", "11", "14", "23", "30"} // base - 02 + 14
	probe := value.Tuple{"0", "2"}
	want := func(ps []string) string { return view(Build(2, pairs(ps...)), probe) }
	for name, mk := range forms {
		for _, warm := range []string{"cold", "before", "after"} {
			for _, mutateClone := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/%s/mutate-clone=%v", name, warm, mutateClone), func(t *testing.T) {
					src := mk()
					if warm == "before" {
						view(src, probe)
					}
					c := src.Clone()
					if warm == "after" {
						view(src, probe)
						view(c, probe)
					}
					w, r := c, src
					if !mutateClone {
						w, r = src, c
					}
					w.Delete(value.Tuple{"0", "2"})
					w.Insert(value.Tuple{"1", "4"})
					if got, exp := view(w, probe), want(after); got != exp {
						t.Fatalf("written side reads\n%s\nwant\n%s", got, exp)
					}
					if got, exp := view(r, probe), want(base); got != exp {
						t.Fatalf("other side reads\n%s\nwant\n%s", got, exp)
					}
					// A second round on the other side: its first write
					// must not reach the written side either.
					r.Insert(value.Tuple{"4", "4"})
					if got, exp := view(w, probe), want(after); got != exp {
						t.Fatalf("after the other side's insert the written side reads\n%s\nwant\n%s", got, exp)
					}
					if got, exp := view(r, probe), want(append(slices.Clone(base), "44")); got != exp {
						t.Fatalf("other side reads\n%s\nwant\n%s", got, exp)
					}
				})
			}
		}
	}
}

// TestConcurrentCloneDerive: two versions derived concurrently from one
// source whose column indexes are built, while Lookups run on the
// source and on both versions, leave each of the three reading its own
// tuples (run it under -race). The versions carry the built indexes,
// whose buckets of six tuples have spare capacity: both versions append
// to the same bucket, which must not write the array they share.
func TestConcurrentCloneDerive(t *testing.T) {
	s := NewSchema().MustDeclare("e", 2)
	src := NewInstance(s)
	for i := 0; i < 48; i++ {
		src.Add("e", fmt.Sprint(i%8), fmt.Sprint(i))
	}
	for c := 0; c < 2; c++ {
		src.Rel("e").Lookup(c, "0")
	}
	deltas := []*Delta{
		(&Delta{}).Insert("e", "0", "x").Delete("e", "1", "1"),
		(&Delta{}).Insert("e", "0", "y").Delete("e", "1", "9"),
	}
	lookups := func(r *Relation) {
		for v := 0; v < 8; v++ {
			r.Lookup(0, value.V(fmt.Sprint(v)))
			r.Lookup(1, value.V(fmt.Sprint(v)))
		}
	}
	next := make([]*Instance, len(deltas))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				lookups(src.Rel("e"))
			}
		}
	}()
	var dw sync.WaitGroup
	for i, d := range deltas {
		dw.Add(1)
		go func() {
			defer dw.Done()
			v, _, err := src.Derive(d)
			if err != nil {
				t.Error(err)
				return
			}
			lookups(v.Rel("e"))
			next[i] = v
		}()
	}
	dw.Wait()
	for _, v := range next {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lookups(v.Rel("e"))
		}()
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	check := func(name string, r *Relation, zero []string) {
		t.Helper()
		var got []string
		for _, tup := range r.Lookup(0, "0") {
			got = append(got, string(tup[1]))
		}
		slices.Sort(got)
		if !slices.Equal(got, zero) {
			t.Errorf("%s: Lookup(0, 0) = %v, want %v", name, got, zero)
		}
		if fresh := Build(2, r.Tuples()); view(r, nil) != view(fresh, nil) {
			t.Errorf("%s reads\n%s\nwant\n%s", name, view(r, nil), view(fresh, nil))
		}
	}
	check("source", src.Rel("e"), []string{"0", "16", "24", "32", "40", "8"})
	check("version 1", next[0].Rel("e"), []string{"0", "16", "24", "32", "40", "8", "x"})
	check("version 2", next[1].Rel("e"), []string{"0", "16", "24", "32", "40", "8", "y"})
}
