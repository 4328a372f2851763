package value

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCompareNumericBeforeString(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"1", "2", -1},
		{"2", "10", -1}, // numeric, not lexicographic
		{"10", "10", 0},
		{"-3", "2", -1},
		{"5", "abc", -1}, // numbers precede strings
		{"abc", "5", +1},
		{"abc", "abd", -1},
		{"", "a", -1},
		{"a", "a", 0},
		// Equal magnitudes spelled differently are distinct values and
		// must not tie: they order by their text.
		{"01", "1", -1},
		{"1", "01", +1},
		{"-0", "0", -1},
		{"-01", "-1", -1},
	}
	for _, c := range cases {
		if got := Compare(V(c.a), V(c.b)); got != c.want {
			t.Errorf("Compare(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareIsTotalOrder(t *testing.T) {
	// Property: antisymmetry and transitivity on random values.
	vals := []V{"0", "1", "-5", "10", "2", "x", "abc", "", "zz", "007", "7", "-0", "01", "-05"}
	for _, a := range vals {
		for _, b := range vals {
			if Compare(a, b) != -Compare(b, a) {
				t.Errorf("antisymmetry fails for %q,%q", a, b)
			}
			if (Compare(a, b) == 0) != (a == b) {
				t.Errorf("Compare(%q,%q) = %d: only identical values may tie", a, b, Compare(a, b))
			}
			for _, c := range vals {
				if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Errorf("transitivity fails for %q ≤ %q ≤ %q", a, b, c)
				}
			}
		}
	}
}

func TestCompareReflexiveProperty(t *testing.T) {
	f := func(s string) bool { return Compare(V(s), V(s)) == 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareAntisymmetricProperty(t *testing.T) {
	f := func(a, b string) bool { return Compare(V(a), V(b)) == -Compare(V(b), V(a)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleKeyInjective(t *testing.T) {
	// The classic collision risk: ("a","bc") vs ("ab","c").
	a := Tuple{"a", "bc"}
	b := Tuple{"ab", "c"}
	if a.Key() == b.Key() {
		t.Fatalf("Key collision: %q", a.Key())
	}
	c := Tuple{"1:", "x"}
	d := Tuple{"1", ":x"}
	if c.Key() == d.Key() {
		t.Fatalf("Key collision: %q", c.Key())
	}
}

func TestTupleKeyInjectiveProperty(t *testing.T) {
	f := func(a1, a2, b1, b2 string) bool {
		a := Tuple{V(a1), V(a2)}
		b := Tuple{V(b1), V(b2)}
		if a1 == b1 && a2 == b2 {
			return a.Key() == b.Key()
		}
		return a.Key() != b.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareTuples(t *testing.T) {
	cases := []struct {
		a, b Tuple
		want int
	}{
		{Tuple{"1"}, Tuple{"2"}, -1},
		{Tuple{"1", "9"}, Tuple{"1", "10"}, -1},
		{Tuple{"1"}, Tuple{"1", "0"}, -1}, // prefix precedes extension
		{Tuple{}, Tuple{}, 0},
		{Tuple{"a", "b"}, Tuple{"a", "b"}, 0},
	}
	for _, c := range cases {
		if got := CompareTuples(c.a, c.b); got != c.want {
			t.Errorf("CompareTuples(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestSortTuplesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ts := make([]Tuple, 50)
	for i := range ts {
		ts[i] = Tuple{Of(rng.Intn(20)), Of(rng.Intn(20))}
	}
	SortTuples(ts)
	if !sort.SliceIsSorted(ts, func(i, j int) bool { return CompareTuples(ts[i], ts[j]) < 0 }) {
		t.Fatal("SortTuples did not sort")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Tuple{"x", "y"}
	b := a.Clone()
	b[0] = "z"
	if a[0] != "x" {
		t.Fatal("Clone shares storage")
	}
}

func TestConcat(t *testing.T) {
	a := Tuple{"1"}
	b := Tuple{"2", "3"}
	c := Concat(a, b)
	if len(c) != 3 || c[0] != "1" || c[2] != "3" {
		t.Fatalf("Concat = %v", c)
	}
	c[0] = "9"
	if a[0] != "1" {
		t.Fatal("Concat shares storage with input")
	}
}

func TestOf(t *testing.T) {
	if Of(42) != "42" {
		t.Fatalf("Of(42) = %q", Of(42))
	}
	if n, ok := Of(-7).Int(); !ok || n != -7 {
		t.Fatalf("roundtrip failed: %v %v", n, ok)
	}
}

func TestIntRejectsNonNumbers(t *testing.T) {
	for _, s := range []string{"", "a", "1.5", "1e3", "0x10"} {
		if _, ok := V(s).Int(); ok {
			t.Errorf("%q parsed as int", s)
		}
	}
}
