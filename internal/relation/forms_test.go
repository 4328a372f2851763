package relation

import (
	"math/rand"
	"slices"
	"testing"

	"ptx/internal/value"
)

// formsAlphabet holds the values the forms fuzzer draws from, including
// the numeric spellings that are equal in magnitude but distinct values.
var formsAlphabet = []value.V{"1", "01", "-0", "0", "2", "a", "b"}

// FuzzRelationForms: a sealed relation (Build) and a hashed one
// (FromTuples) over the same rows agree on every read, before and after
// one seeded Insert/Delete sequence thaws the sealed one.
func FuzzRelationForms(f *testing.F) {
	f.Add([]byte{2, 0, 1, 1, 0, 0, 1, 2, 3, 3, 2, 0, 1}, int64(1))
	f.Add([]byte{1, 0, 1, 2, 3, 0, 1}, int64(2))
	f.Add([]byte{0, 0, 0}, int64(3))
	f.Add([]byte{3}, int64(4))
	// Sealed and hashed pairs with several groups and near-equal
	// neighbours, so Equal's sorted fast path meets unequal relations.
	f.Add([]byte{1, 0, 1, 2, 3, 4, 5, 6}, int64(5))
	f.Add([]byte{2, 5, 0, 5, 1, 6, 0, 6, 1, 0, 0}, int64(6))
	f.Add([]byte{3, 0, 1, 2, 0, 1, 3, 2, 1, 0}, int64(7))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) == 0 {
			return
		}
		arity := int(data[0] % 4)
		var rows []value.Tuple
		for i := 1; i+arity <= len(data) && len(rows) < 64; i += max(arity, 1) {
			row := make(value.Tuple, arity)
			for c := range row {
				row[c] = formsAlphabet[int(data[i+c])%len(formsAlphabet)]
			}
			rows = append(rows, row)
		}
		sealed := Build(arity, append([]value.Tuple(nil), rows...))
		hashed := FromTuples(arity, rows...)
		ref := make(map[string]bool)
		for _, row := range rows {
			ref[row.Key()] = true
		}
		rng := rand.New(rand.NewSource(seed))
		checkForms(t, "built", sealed, hashed, ref, rng)

		for i := 0; i < 8; i++ {
			row := randomTuple(rng, arity)
			if rng.Intn(2) == 0 {
				if s, h := sealed.Insert(row), hashed.Insert(row); s != h || s == ref[row.Key()] {
					t.Fatalf("Insert%v: sealed %v, hashed %v, was present %v", row, s, h, ref[row.Key()])
				}
				ref[row.Key()] = true
			} else {
				if s, h := sealed.Delete(row), hashed.Delete(row); s != h || s != ref[row.Key()] {
					t.Fatalf("Delete%v: sealed %v, hashed %v, was present %v", row, s, h, ref[row.Key()])
				}
				delete(ref, row.Key())
			}
		}
		checkForms(t, "mutated", sealed, hashed, ref, rng)
	})
}

func randomTuple(rng *rand.Rand, arity int) value.Tuple {
	t := make(value.Tuple, arity)
	for c := range t {
		t[c] = formsAlphabet[rng.Intn(len(formsAlphabet))]
	}
	return t
}

// checkForms asserts that a and b agree on every read and hold exactly
// the tuples whose keys ref lists.
func checkForms(t *testing.T, stage string, a, b *Relation, ref map[string]bool, rng *rand.Rand) {
	t.Helper()
	if a.Len() != len(ref) || b.Len() != len(ref) {
		t.Fatalf("%s: Len %d and %d, want %d", stage, a.Len(), b.Len(), len(ref))
	}
	as, bs := a.Sorted(), b.Sorted()
	for i := range as {
		if !value.Equal(as[i], bs[i]) {
			t.Fatalf("%s: Sorted differ at %d: %v vs %v", stage, i, as, bs)
		}
		if i > 0 && value.CompareTuples(as[i-1], as[i]) >= 0 {
			t.Fatalf("%s: Sorted not strictly increasing: %v", stage, as)
		}
	}
	if a.Key() != b.Key() {
		t.Fatalf("%s: Key differ:\n %q\n %q", stage, a.Key(), b.Key())
	}
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatalf("%s: Equal is false between equal forms", stage)
	}
	if a.Hash() != b.Hash() {
		t.Fatalf("%s: Hash differ: %x vs %x", stage, a.Hash(), b.Hash())
	}
	// Equal against SubsetOf, on neighbours that may differ: the groups
	// of a 1-prefix grouping, and sealed copies missing the first or the
	// last tuple.
	var others []*Relation
	if len(as) > 0 {
		others = append(a.GroupByPrefix(min(1, a.Arity())),
			Build(a.Arity(), slices.Clone(as[1:])), Build(a.Arity(), slices.Clone(as[:len(as)-1])))
	}
	for i, o := range others {
		for _, x := range []*Relation{a, b} {
			want := x.SubsetOf(o) && o.SubsetOf(x)
			if x.Equal(o) != want || o.Equal(x) != want || want != (x.Hash() == o.Hash()) {
				t.Fatalf("%s: neighbour %d %v vs %v: Equal %v/%v, Hash equal %v, want %v",
					stage, i, x, o, x.Equal(o), o.Equal(x), x.Hash() == o.Hash(), want)
			}
		}
	}
	probes := append([]value.Tuple(nil), as...)
	for i := 0; i < 4; i++ {
		probes = append(probes, randomTuple(rng, a.Arity()))
	}
	for _, p := range probes {
		if a.Contains(p) != ref[p.Key()] || b.Contains(p) != ref[p.Key()] {
			t.Fatalf("%s: Contains%v: %v and %v, want %v", stage, p, a.Contains(p), b.Contains(p), ref[p.Key()])
		}
	}
	for k := 0; k <= a.Arity(); k++ {
		if ga, gb := groupRows(a.GroupByPrefix(k)), groupRows(b.GroupByPrefix(k)); !sameGroups(ga, gb) {
			t.Fatalf("%s: GroupByPrefix(%d): %v vs %v", stage, k, ga, gb)
		}
	}
	for c := 0; c < a.Arity(); c++ {
		for _, v := range formsAlphabet {
			la := FromTuples(a.Arity(), a.Lookup(c, v)...)
			lb := FromTuples(b.Arity(), b.Lookup(c, v)...)
			if len(a.Lookup(c, v)) != la.Len() || !la.Equal(lb) {
				t.Fatalf("%s: Lookup(%d, %q): %v vs %v", stage, c, v, la, lb)
			}
		}
	}
}

// TestBuildOneForms: a one-tuple relation (BuildOne) agrees with a
// hashed one on every read at widths 0–3, before and after seeded
// mutations thaw it, and it does not alias the tuple it was given.
func TestBuildOneForms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for arity := 0; arity <= 3; arity++ {
		for trial := 0; trial < 20; trial++ {
			row := randomTuple(rng, arity)
			one := BuildOne(row)
			hashed := FromTuples(arity, row.Clone())
			ref := map[string]bool{row.Key(): true}
			checkForms(t, "one", one, hashed, ref, rng)
			if arity > 0 {
				row[0] = "z"
				if one.Contains(row) {
					t.Fatalf("BuildOne aliases its argument: %v", one)
				}
				row[0] = hashed.Sorted()[0][0]
			}
			for i := 0; i < 4; i++ {
				m := randomTuple(rng, arity)
				if rng.Intn(2) == 0 {
					one.Insert(m)
					hashed.Insert(m)
					ref[m.Key()] = true
				} else {
					one.Delete(m)
					hashed.Delete(m)
					delete(ref, m.Key())
				}
			}
			checkForms(t, "one mutated", one, hashed, ref, rng)
		}
	}
}
