// Package pt implements publishing transducers (Definition 3.1 of the
// paper): deterministic top-down machines that generate an XML tree from
// a relational database by evaluating relational queries embedded in
// transition rules.
//
// A transducer τ = (Q, Σ, Θ, q0, δ[, Σe]) is parameterized by
//
//   - the logic L of its embedded queries (CQ, FO, IFP),
//   - the store S of its registers (tuple vs relation), and
//   - the output discipline O (normal vs virtual nodes),
//
// which together place it in a class PT(L, S, O); the nonrecursive
// subclass PTnr(L, S, O) has an acyclic dependency graph. Classify
// computes the smallest class containing a transducer.
//
// Inside rule queries, the atom "Reg" refers to the register of the node
// being expanded (the paper's Reg_a for the node's tag a).
package pt

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"ptx/internal/logic"
	"ptx/internal/relation"
	"ptx/internal/xmltree"
)

// RegRel is the reserved relation name that resolves to the current
// node's register inside rule queries.
const RegRel = "Reg"

// RHS is one item (q_i, a_i, φ_i(x̄;ȳ)) on the right-hand side of a
// transduction rule.
type RHS struct {
	State string
	Tag   string
	Query *logic.Query
}

// Rule is the unique transduction rule for a (state, tag) pair. Its
// Items are AddRule's copy, queries interned; nothing writes them after.
type Rule struct {
	State string
	Tag   string
	Items []RHS
}

type ruleKey struct{ state, tag string }

// Transducer is a publishing transducer over a relational schema.
type Transducer struct {
	Name    string
	Schema  *relation.Schema
	Start   string          // q0
	RootTag string          // r
	Arities map[string]int  // Θ: tag → register arity (Θ(r)=0)
	Virtual map[string]bool // Σe: virtual tags (never the root)

	rules   map[ruleKey]*Rule
	tags    []string
	queries map[string]*logic.Query // interned rule queries, by logic.Query.Key
	seal    atomic.Pointer[seal]    // set by the first successful Validate
}

// seal is what the first successful Validate fixes about a transducer:
// the rule items whose query reads each base relation, and those whose
// query reads the active domain. Nothing writes it once it is stored.
type seal struct {
	reads  map[string][]reader
	domain []reader
}

type reader struct {
	rule *Rule
	q    *logic.Query
}

// open panics if Validate has sealed t: runs rely on τ being fixed.
func (t *Transducer) open(op string) {
	if t.seal.Load() != nil {
		panic(fmt.Sprintf("pt %s: %s on a validated transducer", t.Name, op))
	}
}

// New returns an empty transducer skeleton for schema, with start state
// q0 and root tag r. Θ(r) is fixed at 0.
func New(name string, schema *relation.Schema, start, rootTag string) *Transducer {
	t := &Transducer{
		Name:    name,
		Schema:  schema,
		Start:   start,
		RootTag: rootTag,
		Arities: map[string]int{rootTag: 0},
		Virtual: make(map[string]bool),
		rules:   make(map[ruleKey]*Rule),
		queries: make(map[string]*logic.Query),
	}
	t.tags = []string{rootTag}
	return t
}

// DeclareTag records the register arity Θ(tag). Redeclaring with a
// different arity panics (Θ is a function), as does a sealed t.
func (t *Transducer) DeclareTag(tag string, arity int) *Transducer {
	t.open("DeclareTag")
	if a, ok := t.Arities[tag]; ok {
		if a != arity {
			panic(fmt.Sprintf("pt: tag %q redeclared with arity %d (was %d)", tag, arity, a))
		}
		return t
	}
	t.Arities[tag] = arity
	t.tags = append(t.tags, tag)
	sort.Strings(t.tags)
	return t
}

// MarkVirtual designates tags as virtual (members of Σe). The root tag
// may not be virtual. It panics on a sealed t (see Validate).
func (t *Transducer) MarkVirtual(tags ...string) *Transducer {
	t.open("MarkVirtual")
	for _, tag := range tags {
		if tag == t.RootTag {
			panic("pt: root tag cannot be virtual")
		}
		t.Virtual[tag] = true
	}
	return t
}

// AddRule installs the unique rule for (state, tag); duplicate
// installation panics (δ is a function), as does a sealed t (see
// Validate). Each item's query is replaced by the transducer's
// canonical copy of an identical query (same x̄;ȳ, same formula; see
// logic.Query.Key), so one query has one compiled plan, one memo
// identity, and one evaluation per rule step (see Expander) wherever
// it occurs.
func (t *Transducer) AddRule(state, tag string, items ...RHS) *Transducer {
	t.open("AddRule")
	k := ruleKey{state, tag}
	if _, ok := t.rules[k]; ok {
		panic(fmt.Sprintf("pt: duplicate rule for (%s,%s)", state, tag))
	}
	items = slices.Clone(items)
	for i, it := range items {
		if it.Query == nil {
			continue
		}
		key := it.Query.Key()
		if c, ok := t.queries[key]; ok {
			items[i].Query = c
		} else {
			t.queries[key] = it.Query
		}
	}
	t.rules[k] = &Rule{State: state, Tag: tag, Items: items}
	return t
}

// Rule returns the rule for (state, tag). A missing rule is interpreted
// as a rule with an empty right-hand side (the node finalizes).
func (t *Transducer) Rule(state, tag string) (*Rule, bool) {
	r, ok := t.rules[ruleKey{state, tag}]
	return r, ok
}

// Rules returns all rules sorted by (state, tag) for deterministic
// iteration.
func (t *Transducer) Rules() []*Rule {
	keys := make([]ruleKey, 0, len(t.rules))
	for k := range t.rules {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].state != keys[j].state {
			return keys[i].state < keys[j].state
		}
		return keys[i].tag < keys[j].tag
	})
	out := make([]*Rule, len(keys))
	for i, k := range keys {
		out[i] = t.rules[k]
	}
	return out
}

// Tags returns the declared alphabet Σ, sorted.
func (t *Transducer) Tags() []string {
	out := make([]string, len(t.tags))
	copy(out, t.tags)
	return out
}

// Arity returns Θ(tag); undeclared tags have arity 0 only if they never
// appear — asking for one is a bug, so it panics.
func (t *Transducer) Arity(tag string) int {
	a, ok := t.Arities[tag]
	if !ok {
		panic(fmt.Sprintf("pt: tag %q has no declared arity", tag))
	}
	return a
}

// Item builds an RHS entry.
func Item(state, tag string, q *logic.Query) RHS {
	return RHS{State: state, Tag: tag, Query: q}
}

// GroupArityError reports a rule item whose grouping prefix x̄ is wider
// than the tuples it groups: slicing a result tuple to the first |x̄|
// columns would run past its end. Validate returns it (wrapped with the
// rule's coordinates) for such rules, so no transducer that validates
// can reach the former slice-bounds panic in grouping; groupByPrefix
// returns the same error at run time as a defense against mis-sized
// results from a corrupted cache or evaluator.
type GroupArityError struct {
	GroupVars int // |x̄|, the grouping prefix width
	Arity     int // width of the tuples being grouped
}

func (e *GroupArityError) Error() string {
	return fmt.Sprintf("grouping prefix |x̄|=%d exceeds tuple arity %d", e.GroupVars, e.Arity)
}

// Validate checks the structural requirements of Definition 3.1:
//
//   - a start rule for (q0, r) exists, and no other rule uses q0 or r;
//   - Θ(r) = 0 and every tag on a right-hand side has a declared arity
//     equal to its query's head width |x̄|+|ȳ|;
//   - text rules have empty right-hand sides, and no rule spawns
//     children under a text tag via a nonempty rule;
//   - every relation mentioned by a query is in the schema or is Reg;
//   - virtual tags exclude the root.
//
// The first Validate that succeeds seals t and records what each rule
// query reads (see Readers). Later calls return nil after one atomic
// load, and DeclareTag, MarkVirtual and AddRule panic; nor may Arities,
// Virtual or Rule.Items be written. A failed Validate seals nothing.
// Concurrent first calls only read t, and one of them stores the seal.
//
// The paper's simplifying assumption that tags within one rule are
// pairwise distinct is NOT enforced: several of the paper's own
// reduction constructions (e.g. the 2RM equivalence reduction of
// Theorem 1(3)) spawn the same tag from multiple items. Transducers
// with duplicate tags run fine; the static analyses that rely on
// distinctness (membership, equivalence) detect them via
// HasDuplicateTags and refuse.
func (t *Transducer) Validate() error {
	if t.seal.Load() != nil {
		return nil
	}
	if _, ok := t.rules[ruleKey{t.Start, t.RootTag}]; !ok {
		return fmt.Errorf("pt %s: missing start rule (%s,%s)", t.Name, t.Start, t.RootTag)
	}
	if a := t.Arities[t.RootTag]; a != 0 {
		return fmt.Errorf("pt %s: Θ(%s) = %d, must be 0", t.Name, t.RootTag, a)
	}
	if t.Virtual[t.RootTag] {
		return fmt.Errorf("pt %s: root tag %q is virtual", t.Name, t.RootTag)
	}
	s := &seal{reads: make(map[string][]reader)}
	for _, r := range t.Rules() {
		if r.Tag == t.RootTag && r.State != t.Start {
			return fmt.Errorf("pt %s: rule (%s,%s) uses root tag with non-start state", t.Name, r.State, r.Tag)
		}
		if r.State == t.Start && r.Tag != t.RootTag {
			return fmt.Errorf("pt %s: rule (%s,%s) reuses start state", t.Name, r.State, r.Tag)
		}
		if r.Tag == xmltree.TextTag && len(r.Items) != 0 {
			return fmt.Errorf("pt %s: text rule (%s,text) must have empty rhs", t.Name, r.State)
		}
		for _, it := range r.Items {
			if it.Tag == t.RootTag {
				return fmt.Errorf("pt %s: rule (%s,%s) spawns the root tag", t.Name, r.State, r.Tag)
			}
			if it.State == t.Start {
				return fmt.Errorf("pt %s: rule (%s,%s) spawns the start state", t.Name, r.State, r.Tag)
			}
			a, ok := t.Arities[it.Tag]
			if !ok {
				return fmt.Errorf("pt %s: rule (%s,%s) spawns undeclared tag %q", t.Name, r.State, r.Tag, it.Tag)
			}
			if it.Query == nil {
				return fmt.Errorf("pt %s: rule (%s,%s) item (%s,%s) has no query", t.Name, r.State, r.Tag, it.State, it.Tag)
			}
			if err := it.Query.Validate(); err != nil {
				return fmt.Errorf("pt %s: rule (%s,%s): %v", t.Name, r.State, r.Tag, err)
			}
			if g := len(it.Query.GroupVars); g > a {
				return fmt.Errorf("pt %s: rule (%s,%s) item %q: %w",
					t.Name, r.State, r.Tag, it.Tag, &GroupArityError{GroupVars: g, Arity: a})
			}
			if it.Query.Arity() != a {
				return fmt.Errorf("pt %s: rule (%s,%s) item %q: query arity %d ≠ Θ(%s)=%d",
					t.Name, r.State, r.Tag, it.Tag, it.Query.Arity(), it.Tag, a)
			}
			for _, rel := range logic.Relations(it.Query.F) {
				if rel == RegRel {
					continue
				}
				if _, ok := t.Schema.Arity(rel); !ok {
					return fmt.Errorf("pt %s: rule (%s,%s) item %q references unknown relation %q",
						t.Name, r.State, r.Tag, it.Tag, rel)
				}
				s.reads[rel] = append(s.reads[rel], reader{r, it.Query})
			}
			if it.Query.ReadsDomain() {
				s.domain = append(s.domain, reader{r, it.Query})
			}
		}
	}
	t.seal.CompareAndSwap(nil, s)
	return nil
}

// Readers returns the rules and the distinct rule queries whose results
// can change when the relations rels do: those naming one of them and,
// unless rels is empty, every query reading the active domain
// (logic.Query.ReadsDomain), which a write to any relation can move.
// It panics on a transducer Validate has not sealed.
func (t *Transducer) Readers(rels []string) (rules []*Rule, queries []*logic.Query) {
	s := t.seal.Load()
	if s == nil {
		panic(fmt.Sprintf("pt %s: Readers before Validate", t.Name))
	}
	add := func(rds []reader) {
		for _, rd := range rds {
			if !slices.Contains(rules, rd.rule) {
				rules = append(rules, rd.rule)
			}
			if !slices.Contains(queries, rd.q) {
				queries = append(queries, rd.q)
			}
		}
	}
	if len(rels) > 0 {
		add(s.domain)
	}
	for _, rel := range rels {
		add(s.reads[rel])
	}
	return rules, queries
}

// String gives a compact multi-line rendering of the transducer.
func (t *Transducer) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "transducer %s (start %s, root %s)\n", t.Name, t.Start, t.RootTag)
	for _, r := range t.Rules() {
		fmt.Fprintf(&sb, "  (%s,%s) ->", r.State, r.Tag)
		if len(r.Items) == 0 {
			sb.WriteString(" .")
		}
		for i, it := range r.Items {
			if i > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, " (%s,%s, %s)", it.State, it.Tag, it.Query)
		}
		sb.WriteByte('\n')
	}
	if len(t.Virtual) > 0 {
		tags := make([]string, 0, len(t.Virtual))
		for v := range t.Virtual {
			tags = append(tags, v)
		}
		sort.Strings(tags)
		fmt.Fprintf(&sb, "  virtual: %s\n", strings.Join(tags, ","))
	}
	return sb.String()
}

// HasDuplicateTags reports whether some rule spawns the same tag from
// two different items — allowed at runtime but outside the fragment the
// membership and equivalence analyses support.
func (t *Transducer) HasDuplicateTags() bool {
	for _, r := range t.Rules() {
		seen := make(map[string]bool, len(r.Items))
		for _, it := range r.Items {
			if seen[it.Tag] {
				return true
			}
			seen[it.Tag] = true
		}
	}
	return false
}
