// Allocation guards for surgical repair: a clean node costs no
// allocation, and matching a dirty node's children is linear in their
// number. The race detector allocates on its own, so both skip under it.
package incr_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ptx/internal/incr"
	"ptx/internal/registrar"
	"ptx/internal/relation"
)

// toggleAllocs returns the mean allocations of one Apply on v, the
// deltas alternating between on and off so the instance returns to its
// base state every two calls.
func toggleAllocs(t *testing.T, v *incr.View, on, off *relation.Delta) float64 {
	t.Helper()
	i := 0
	return testing.AllocsPerRun(20, func() {
		d := on
		if i%2 == 1 {
			d = off
		}
		i++
		if _, err := v.Apply(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	})
}

// TestViewApplyAllocs: one prerequisite flip on τ1 over a layered
// registrar re-expands ~220 dirty prereq nodes and walks ~1,400 clean
// ones. Keying every visited node and child by a configuration string and
// every child by its report path cost 4,573 allocations per Apply
// (go1.24, amd64); walking the path stack and matching by register hash
// cost 576. Re-expanding every dirty node through one reused
// pt.Expander, instead of a fresh register Env and spec slice per node,
// and invalidating the memo from relation sets recorded once per query
// cost 442, nearly all of them the dirty nodes' rule queries. Handing
// fresh children their ancestors as configurations, not key strings,
// cost 434. Validating τ1 once, so a repair's RestoreStepRun reads the
// seal instead of re-checking every rule, cost 410. Keying the memo by
// the register's hash instead of its Key string cost 395 (390 on later
// trees). Making a one-row query result, and an only child with its
// Children array, one object each cost 371. The bound sits between 576
// and these counts, so a walk that builds its rule step per node again
// fails it.
func TestViewApplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	inst := layeredRegistrar(rand.New(rand.NewSource(1)), 5, 8)
	v, err := incr.NewView(context.Background(), registrar.Tau1(), inst.Clone(), incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Flip one prerequisite of a second-layer course, as the benchmark's
	// toggle slots do.
	old := inst.Rel("prereq").Sorted()[20]
	on := (&relation.Delta{}).DeleteTuple("prereq", old).Insert("prereq", string(old[0]), "C300")
	off := (&relation.Delta{}).Delete("prereq", string(old[0]), "C300").InsertTuple("prereq", old)
	got := toggleAllocs(t, v, on, off)
	t.Logf("%.0f allocations per toggle Apply", got)
	if got > 500 {
		t.Fatalf("%.0f allocations per toggle Apply, want at most 500", got)
	}
}

// TestViewApplyAllocsWideNode: a product delta dirties the catalog root,
// whose children are every product. Matching them against the new child
// specs must stay linear: allocations at 4,000 products within 5× of
// those at 1,000. Keying children by configuration strings cost 10,985 and 44,013;
// hash matching costs 63 at both widths.
func TestViewApplyAllocsWideNode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	allocs := func(products int) float64 {
		inst := relation.NewInstance(catalogSchema())
		for i := 0; i < products; i++ {
			inst.Add("product", fmt.Sprintf("sku%05d", i), fmt.Sprintf("Item %05d", i), "cat000")
		}
		v, err := incr.NewView(context.Background(), catalogTransducer(), inst, incr.Options{})
		if err != nil {
			t.Fatal(err)
		}
		on := (&relation.Delta{}).Insert("product", "skuNEW", "Item NEW", "cat000")
		off := (&relation.Delta{}).Delete("product", "skuNEW", "Item NEW", "cat000")
		return toggleAllocs(t, v, on, off)
	}
	small, large := allocs(1000), allocs(4000)
	t.Logf("allocations per Apply: %.0f at 1,000 products, %.0f at 4,000", small, large)
	if large > 5*small {
		t.Fatalf("allocations grow faster than the node's width: %.0f at 1,000 children, %.0f at 4,000", small, large)
	}
}
