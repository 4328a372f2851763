package relation

import (
	"sync"
	"testing"

	"ptx/internal/value"
)

// groupRows renders groups as their sorted tuple strings, one slice per
// group, for comparison against expectations.
func groupRows(gs []*Relation) [][]string {
	out := make([][]string, len(gs))
	for i, g := range gs {
		for _, t := range g.Sorted() {
			out[i] = append(out[i], t.String())
		}
	}
	return out
}

func sameGroups(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestGroupByPrefixShapes(t *testing.T) {
	r := rel([]string{"b", "1"}, []string{"a", "2"}, []string{"a", "1"}, []string{"c", "3"})

	if gs := r.GroupByPrefix(0); len(gs) != 1 || gs[0] != r {
		t.Errorf("k=0: got %d groups, want [receiver]", len(gs))
	}
	if gs := New(2).GroupByPrefix(1); gs != nil {
		t.Errorf("empty: got %v, want nil", gs)
	}
	if gs := New(2).GroupByPrefix(0); gs != nil {
		t.Errorf("empty, k=0: got %v, want nil", gs)
	}

	// k = arity: every tuple is its own group, in canonical order.
	single := r.GroupByPrefix(2)
	want := [][]string{{"(a,1)"}, {"(a,2)"}, {"(b,1)"}, {"(c,3)"}}
	if got := groupRows(single); !sameGroups(got, want) {
		t.Errorf("k=arity: got %v, want %v", got, want)
	}

	// k = 1: prefixes a < b < c, each group carrying the full arity.
	byFirst := r.GroupByPrefix(1)
	want = [][]string{{"(a,1)", "(a,2)"}, {"(b,1)"}, {"(c,3)"}}
	if got := groupRows(byFirst); !sameGroups(got, want) {
		t.Errorf("k=1: got %v, want %v", got, want)
	}
	for i, g := range byFirst {
		if g.Arity() != 2 {
			t.Errorf("group %d has arity %d, want 2", i, g.Arity())
		}
		if !g.SubsetOf(r) {
			t.Errorf("group %d is not a subset of the relation", i)
		}
		// A group is a full relation: Key and Equal agree with a rebuilt
		// copy of its tuples.
		if c := FromTuples(2, g.Tuples()...); c.Key() != g.Key() || !c.Equal(g) {
			t.Errorf("group %d differs from a rebuilt copy", i)
		}
	}
}

func TestGroupByPrefixCanonicalOrder(t *testing.T) {
	// Integers order numerically, and distinct spellings of one
	// magnitude stay distinct groups ordered by their text.
	r := rel([]string{"10", "x"}, []string{"9", "x"}, []string{"01", "y"},
		[]string{"1", "y"}, []string{"b", "z"}, []string{"a", "z"})
	var got []value.V
	for _, g := range r.GroupByPrefix(1) {
		got = append(got, g.Sorted()[0][0])
	}
	want := []value.V{"01", "1", "9", "10", "a", "b"}
	if len(got) != len(want) {
		t.Fatalf("prefixes %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prefixes %v, want %v", got, want)
		}
	}
}

func TestGroupByPrefixCached(t *testing.T) {
	r := rel([]string{"a", "1"}, []string{"a", "2"}, []string{"b", "1"})
	first := r.GroupByPrefix(1)
	second := r.GroupByPrefix(1)
	if len(first) != len(second) || &first[0] != &second[0] {
		t.Fatal("second call rebuilt the grouping")
	}
	// A different width regroups, and is then the cached one.
	if gs := r.GroupByPrefix(2); len(gs) != 3 {
		t.Fatalf("k=2: %d groups, want 3", len(gs))
	}
	if gs := r.GroupByPrefix(2); &gs[0] != &r.GroupByPrefix(2)[0] {
		t.Error("k=2 grouping not cached")
	}
}

// TestGroupByPrefixInvalidation: every mutator drops the cached
// grouping, so a regroup after a mutation sees the new tuples.
func TestGroupByPrefixInvalidation(t *testing.T) {
	s := NewSchema().MustDeclare("R", 2)
	mutators := []struct {
		name string
		do   func(inst *Instance)
		want [][]string
	}{
		{"Add", func(inst *Instance) { inst.Rel("R").Add(value.Tuple{"b", "2"}) },
			[][]string{{"(a,1)"}, {"(b,1)", "(b,2)"}}},
		{"Delete", func(inst *Instance) { inst.Rel("R").Delete(value.Tuple{"a", "1"}) },
			[][]string{{"(b,1)"}}},
		{"UnionWith", func(inst *Instance) { inst.Rel("R").UnionWith(rel([]string{"c", "3"})) },
			[][]string{{"(a,1)"}, {"(b,1)"}, {"(c,3)"}}},
		{"Apply", func(inst *Instance) {
			d := (&Delta{}).Insert("R", "a", "0").Delete("R", "b", "1")
			if _, err := inst.Apply(d); err != nil {
				t.Fatal(err)
			}
		}, [][]string{{"(a,0)", "(a,1)"}}},
	}
	for _, m := range mutators {
		inst := NewInstance(s)
		inst.Add("R", "a", "1")
		inst.Add("R", "b", "1")
		before := inst.Rel("R").GroupByPrefix(1)
		m.do(inst)
		after := inst.Rel("R").GroupByPrefix(1)
		if got := groupRows(after); !sameGroups(got, m.want) {
			t.Errorf("%s: regrouped %v, want %v", m.name, got, m.want)
		}
		if len(after) > 0 && len(before) > 0 && &after[0] == &before[0] {
			t.Errorf("%s: stale grouping returned", m.name)
		}
	}
}

// TestGroupByPrefixConcurrentFirstCalls: racing first calls (parallel
// transducer workers regrouping one shared memoized result) are
// race-free and agree, on hashed and on sealed (Build) inputs; odd
// trials use the sealed form.
func TestGroupByPrefixConcurrentFirstCalls(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rows := make([]value.Tuple, 50)
		for i := range rows {
			rows[i] = value.Tuple{value.V(string(rune('a' + i%7))), value.V(string(rune('a' + i)))}
		}
		want := groupRows(FromTuples(2, rows...).GroupByPrefix(1))
		r := FromTuples(2, rows...)
		if trial%2 == 1 {
			r = Build(2, rows)
		}
		var wg sync.WaitGroup
		got := make([][][]string, 8)
		for w := range got {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				gs := r.GroupByPrefix(1)
				for _, g := range gs {
					g.Key()
					g.Lookup(1, g.Sorted()[0][1])
				}
				got[w] = groupRows(gs)
			}(w)
		}
		wg.Wait()
		for w, g := range got {
			if !sameGroups(g, want) {
				t.Fatalf("trial %d worker %d: %v, want %v", trial, w, g, want)
			}
		}
	}
}
