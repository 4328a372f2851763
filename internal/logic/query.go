package logic

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
)

// Query is an embedded transducer query φ(x̄;ȳ): a formula whose free
// variables are split into grouping variables x̄ and content variables ȳ.
// When the query runs at a node, its result is grouped by the distinct
// x̄-values; each group spawns one child whose register holds
// {d̄}×{ē | φ(d̄,ē)}. With |ȳ|=0 the child registers are single tuples
// (tuple stores); with |x̄|=0 the whole result lands in one child.
type Query struct {
	GroupVars   []Var
	ContentVars []Var
	F           Formula
}

// NewQuery builds and validates a query φ(x̄;ȳ).
func NewQuery(group, content []Var, f Formula) (*Query, error) {
	q := &Query{GroupVars: group, ContentVars: content, F: f}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustQuery is NewQuery that panics on error; for literals in tests,
// examples and generated constructions.
func MustQuery(group, content []Var, f Formula) *Query {
	q, err := NewQuery(group, content, f)
	if err != nil {
		panic(err)
	}
	return q
}

// Validate checks that x̄ and ȳ are disjoint, duplicate-free, and cover
// the free variables of the formula.
func (q *Query) Validate() error {
	seen := make(map[Var]int)
	for _, v := range q.GroupVars {
		seen[v]++
	}
	for _, v := range q.ContentVars {
		seen[v]++
	}
	for v, n := range seen {
		if n > 1 {
			return fmt.Errorf("query: variable %s appears %d times across x̄;ȳ", v, n)
		}
	}
	for _, v := range FreeVars(q.F) {
		if _, ok := seen[v]; !ok {
			return fmt.Errorf("query: free variable %s of %s not listed in x̄;ȳ", v, q.F)
		}
	}
	return nil
}

// Arity is the width of the child registers this query produces:
// |x̄| + |ȳ|.
func (q *Query) Arity() int { return len(q.GroupVars) + len(q.ContentVars) }

// Head returns x̄·ȳ, the output column order of the query.
func (q *Query) Head() []Var {
	out := make([]Var, 0, q.Arity())
	out = append(out, q.GroupVars...)
	out = append(out, q.ContentVars...)
	return out
}

// TupleStore reports whether the query produces tuple registers
// (|ȳ| = 0, so grouping is by the entire tuple).
func (q *Query) TupleStore() bool { return len(q.ContentVars) == 0 }

// Logic returns the smallest fragment containing the query's formula.
func (q *Query) Logic() Logic { return Classify(q.F) }

// String renders the query as φ(x̄;ȳ) = formula.
func (q *Query) String() string {
	return fmt.Sprintf("phi(%s;%s) = %s",
		strings.Join(varStrings(q.GroupVars), ","),
		strings.Join(varStrings(q.ContentVars), ","),
		q.F)
}

func varStrings(vs []Var) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = string(v)
	}
	return out
}

// Key is an injective structural encoding of the query: two queries
// share a key iff they have the same split x̄;ȳ and the same formula
// tree. String would not do, as it prints constants unescaped:
// R('a','b','c') is both R(a','b, c) and R(a, b','c). Key walks the AST
// by reflection, tags every interface value with its dynamic type and
// length-prefixes every string and list.
func (q *Query) Key() string { return string(appendKey(nil, reflect.ValueOf(*q))) }

func appendKey(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if v.IsNil() {
			return append(b, '_')
		}
		if v.Kind() == reflect.Interface {
			b = appendKey(b, reflect.ValueOf(v.Elem().Type().String()))
		}
		return appendKey(b, v.Elem())
	case reflect.Struct:
		for i := range v.NumField() {
			b = appendKey(b, v.Field(i))
		}
	case reflect.Slice:
		b = strconv.AppendInt(append(b, '['), int64(v.Len()), 10)
		for i := range v.Len() {
			b = appendKey(b, v.Index(i))
		}
	case reflect.String:
		b = strconv.AppendInt(append(b, '"'), int64(v.Len()), 10)
		b = append(append(b, ':'), v.String()...)
	default: // scalars (Truth's bool): their rendering, length-prefixed
		b = appendKey(b, reflect.ValueOf(fmt.Sprint(v)))
	}
	return b
}
