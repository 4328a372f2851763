package testutil

import (
	"context"
	"fmt"

	"ptx/internal/pt"
	"ptx/internal/relation"
	"ptx/internal/xmltree"
)

// TreeRelation is the tree reference for the output relation Rτ(I): it
// builds ξ with RunContext and unites the registers of every node
// labeled label, exactly the Section 6.1 definition. pt.OutputRelation
// computes the same relation from the configuration graph without
// building ξ; the differential tests compare the two. Its errors match
// OutputRelation's on a virtual or undeclared label, and a validation
// error comes from RunContext.
func TreeRelation(ctx context.Context, t *pt.Transducer, inst *relation.Instance, label string, opts pt.Options) (*relation.Relation, error) {
	if t.Virtual[label] {
		return nil, fmt.Errorf("pt: output label %q is virtual", label)
	}
	a, ok := t.Arities[label]
	if !ok {
		return nil, fmt.Errorf("pt: output label %q has no declared arity", label)
	}
	res, err := t.RunContext(ctx, inst, opts)
	if err != nil {
		return nil, err
	}
	out := relation.New(a)
	res.Xi.Walk(func(n *xmltree.Node) bool {
		if n.Tag == label && n.Reg != nil {
			out.UnionWith(n.Reg)
		}
		return true
	})
	return out, nil
}
