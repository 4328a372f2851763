package incr_test

import (
	"testing"

	"ptx/internal/incr"
	"ptx/internal/parser"
	"ptx/internal/pt"
	"ptx/internal/relation"
)

// domainSpec publishes one item per active-domain value outside S: its
// root query names only S, but a write to R moves the domain it ranges
// over, so the root rule must be dirty under a delta to R alone.
const domainSpec = `schema R/1, S/1
transducer dom root root start q0
tag item/1
rule q0 root -> (q, item, [x;] !S(x))
rule q item -> .
`

func TestRepairDomainDependentQuery(t *testing.T) {
	tr, err := parser.ParseTransducer(domainSpec)
	if err != nil {
		t.Fatal(err)
	}
	// default repairs through compiled plans; repair runs every repair
	// under the reference evaluator the view's own NoPlan selects.
	for _, tc := range []struct {
		name string
		opts incr.Options
	}{
		{"repair", incr.Options{Run: pt.Options{NoPlan: true}}},
		{"default", incr.Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oracle, err := parser.ParseInstance("R(a)\nS(b)\n", tr.Schema)
			if err != nil {
				t.Fatal(err)
			}
			v := newView(t, tr, oracle, tc.opts)
			for _, d := range []*relation.Delta{
				(&relation.Delta{}).Insert("R", "c"),
				(&relation.Delta{}).Delete("R", "a"),
				(&relation.Delta{}).Insert("S", "c"),
				(&relation.Delta{}).Delete("R", "c").Insert("R", "d"),
			} {
				applyBoth(t, v, tr, oracle, d)
			}
		})
	}
}
