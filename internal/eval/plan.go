package eval

import (
	"sync"

	"ptx/internal/logic"
	"ptx/internal/plan"
)

// planCache maps *logic.Query to its compiled plan. Transducer queries
// are long-lived (built once per transducer, evaluated at thousands of
// nodes), so pointer identity is the natural key and entries are never
// evicted. A query that fails to compile is not stored; EvalQuery
// returns the compile error.
var planCache sync.Map

func planFor(q *logic.Query) (*plan.Plan, error) {
	if v, ok := planCache.Load(q); ok {
		return v.(*plan.Plan), nil
	}
	p, err := plan.Compile(q)
	if err != nil {
		return nil, err
	}
	actual, _ := planCache.LoadOrStore(q, p)
	return actual.(*plan.Plan), nil
}
