package pt

import "fmt"

// CacheMode selects the memoization level of a run. A publishing
// transducer is deterministic — the children emitted at a node are a
// function of only (state, tag, register) over a fixed database
// (Proposition 1) — so identical configurations always produce identical
// rule-query results, and the relation-store families of Proposition 1
// revisit the same configuration at exponentially many nodes.
type CacheMode int

const (
	// CacheOff evaluates each distinct rule query at every node (the
	// zero value): nothing is cached across nodes, and items of one rule
	// carrying the same query share its result (see Expander).
	CacheOff CacheMode = iota
	// CacheQueries memoizes rule-query results on (query, register)
	// (see eval.Memo): each distinct configuration evaluates its
	// queries once, but the tree is still expanded node by node.
	CacheQueries
)

func (m CacheMode) String() string {
	switch m {
	case CacheOff:
		return "off"
	case CacheQueries:
		return "query"
	}
	return fmt.Sprintf("CacheMode(%d)", int(m))
}

// ParseCacheMode parses the CLI spelling of a cache mode.
func ParseCacheMode(s string) (CacheMode, error) {
	switch s {
	case "off":
		return CacheOff, nil
	case "query", "queries":
		return CacheQueries, nil
	}
	return CacheOff, fmt.Errorf("pt: unknown cache mode %q (want off or query)", s)
}
