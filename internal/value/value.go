// Package value defines the data domain D of the publishing-transducer
// model: an infinite, totally ordered set of data values shared by the
// relational source and the node registers of generated trees.
//
// The paper assumes an implicit order ≤ on D that is used only to order
// siblings in the output tree (it is not visible to the query logic).
// This package instantiates that order concretely: values that parse as
// integers compare numerically and precede all non-numeric values, which
// compare lexicographically. The order is total and deterministic, so a
// transducer run always produces the same tree.
package value

import (
	"sort"
	"strconv"
	"strings"
)

// V is a single data value from the domain D.
type V string

// Int returns the numeric interpretation of v and whether v is an integer.
func (v V) Int() (int64, bool) {
	n, err := strconv.ParseInt(string(v), 10, 64)
	return n, err == nil
}

// Of converts any integer to a value.
func Of(n int) V { return V(strconv.Itoa(n)) }

// Compare orders two values: integers numerically first, then strings
// lexicographically. It returns -1, 0 or +1, and 0 only for identical
// values: integers of equal magnitude spelled differently ("1", "01")
// are ordered by their text, so sorted relations have one order and
// tuples sharing a prefix are adjacent (pt's grouping relies on it).
// Numeric comparison is done on the digit strings directly (arbitrary
// precision), avoiding integer parsing in this extremely hot path.
func Compare(a, b V) int {
	aneg, adig, aok := numParts(string(a))
	bneg, bdig, bok := numParts(string(b))
	switch {
	case aok && bok:
		if aneg != bneg {
			if aneg {
				return -1
			}
			return +1
		}
		c := compareDigits(adig, bdig)
		if aneg {
			c = -c
		}
		if c == 0 {
			return strings.Compare(string(a), string(b))
		}
		return c
	case aok:
		return -1
	case bok:
		return +1
	}
	return strings.Compare(string(a), string(b))
}

// numParts splits s into sign and digits when s is a decimal integer
// (optional leading '-', at least one digit, digits only).
func numParts(s string) (neg bool, digits string, ok bool) {
	if len(s) == 0 {
		return false, "", false
	}
	if s[0] == '-' {
		neg = true
		s = s[1:]
		if len(s) == 0 {
			return false, "", false
		}
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false, "", false
		}
	}
	// Strip leading zeros for magnitude comparison; "-0" has the
	// magnitude and sign of "0".
	i := 0
	for i < len(s)-1 && s[i] == '0' {
		i++
	}
	digits = s[i:]
	if digits == "0" {
		neg = false
	}
	return neg, digits, true
}

// compareDigits compares two nonempty digit strings without leading
// zeros by magnitude.
func compareDigits(a, b string) int {
	if len(a) != len(b) {
		if len(a) < len(b) {
			return -1
		}
		return +1
	}
	return strings.Compare(a, b)
}

// Less reports whether a precedes b in the domain order.
func Less(a, b V) bool { return Compare(a, b) < 0 }

// Tuple is a fixed-arity sequence of values.
type Tuple []V

// CompareTuples extends the domain order to tuples lexicographically
// (the "canonical way" of the paper). Shorter tuples precede longer ones
// that share a prefix.
func CompareTuples(a, b Tuple) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return +1
	}
	return 0
}

// Equal reports component-wise equality of two tuples.
func Equal(a, b Tuple) bool { return CompareTuples(a, b) == 0 }

// Clone returns an independent copy of t.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Concat returns the concatenation a·b as a fresh tuple.
func Concat(a, b Tuple) Tuple {
	c := make(Tuple, 0, len(a)+len(b))
	c = append(c, a...)
	c = append(c, b...)
	return c
}

// Key encodes t as a string usable as a map key. The encoding is
// injective: each component is length-prefixed, so no two distinct
// tuples of any arities share a key (the empty tuple encodes as "").
func (t Tuple) Key() string {
	return string(t.AppendKey(nil))
}

// AppendKey appends the Key encoding of t to dst and returns the
// extended slice; it is the allocation-free form used by the register
// fingerprinting hot path (relation.Key, the transducer stop condition
// and the memoization caches).
func (t Tuple) AppendKey(dst []byte) []byte {
	for _, v := range t {
		dst = strconv.AppendInt(dst, int64(len(v)), 10)
		dst = append(dst, ':')
		dst = append(dst, v...)
	}
	return dst
}

// String renders t as (v1,v2,…) for diagnostics.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = string(v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// SortTuples sorts ts in place in the canonical tuple order.
func SortTuples(ts []Tuple) {
	sort.Slice(ts, func(i, j int) bool { return CompareTuples(ts[i], ts[j]) < 0 })
}

// SortValues sorts vs in place in the domain order.
func SortValues(vs []V) {
	sort.Slice(vs, func(i, j int) bool { return Less(vs[i], vs[j]) })
}
