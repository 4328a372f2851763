package pt_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ptx/internal/families"
	"ptx/internal/pt"
	"ptx/internal/relation"
	"ptx/internal/runctl"
	"ptx/internal/testutil"
	"ptx/internal/value"
)

// relationFixtures are the OutputRelation differential workloads: every
// example spec on the registrar database, the unfolding transducer of
// Proposition 1(3) on random graphs (cycles included, so the ancestor
// stop fires), the Proposition 1(4) counter at n = 2, the via witness
// on random graphs and the virtual path counter.
func relationFixtures(t *testing.T) []fixture {
	fs := specFixtures(t)
	rng := rand.New(rand.NewSource(16))
	verts := []string{"a", "b", "c", "d", "e", "f"}
	for i := 0; i < 8; i++ {
		g := relation.NewInstance(families.GraphSchema())
		for k := 0; k < 9; k++ {
			g.Add("R", verts[rng.Intn(len(verts))], verts[rng.Intn(len(verts))])
		}
		fs = append(fs, fixture{fmt.Sprintf("unfold-random-%d", i), families.UnfoldTransducer(), g})
	}
	viaVerts := []string{"c1", "c2", "c3", "d", "e"}
	for i := 0; i < 6; i++ {
		g := relation.NewInstance(families.ViaSchema())
		for k := 0; k < 6; k++ {
			g.Add("E", viaVerts[rng.Intn(len(viaVerts))], viaVerts[rng.Intn(len(viaVerts))])
		}
		fs = append(fs, fixture{fmt.Sprintf("via-random-%d", i), families.ViaTransducer(), g})
	}
	return append(fs, familyFixtures()...)
}

// TestOutputRelationMatchesTree is the differential test of the
// configuration-graph walk: for every fixture, every label (virtual and
// undeclared ones included) and every cache mode and the naive
// evaluator, OutputRelation returns exactly the relation, or the error,
// of the tree reference that builds ξ and unites its label registers.
func TestOutputRelationMatchesTree(t *testing.T) {
	variants := []struct {
		name string
		opts pt.Options
	}{
		{"off", pt.Options{Cache: pt.CacheOff}},
		{"query", pt.Options{Cache: pt.CacheQueries}},
		{"noplan", pt.Options{NoPlan: true}},
	}
	ctx := context.Background()
	for _, f := range relationFixtures(t) {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			labels := []string{"undeclared"}
			for l := range f.tr.Arities {
				labels = append(labels, l)
			}
			sort.Strings(labels)
			nonempty := false
			for _, v := range variants {
				for _, label := range labels {
					want, wantErr := testutil.TreeRelation(ctx, f.tr, f.inst, label, v.opts)
					got, err := f.tr.OutputRelationContext(ctx, f.inst, label, v.opts)
					switch {
					case wantErr != nil || err != nil:
						if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
							t.Fatalf("%s/%s: error %v, tree reference %v", v.name, label, err, wantErr)
						}
					case !got.Equal(want):
						t.Fatalf("%s/%s: relation %s, tree reference %s", v.name, label, got, want)
					case !got.Empty() && label != f.tr.RootTag:
						nonempty = true
					}
				}
			}
			if !nonempty {
				t.Error("every non-root relation is empty; the fixture is vacuous")
			}
		})
	}
}

// TestOutputRelationErrors pins the errors that precede any expansion:
// a virtual label is rejected before validation, and a transducer that
// fails Validate reports Validate's error.
func TestOutputRelationErrors(t *testing.T) {
	inst := relation.NewInstance(families.GraphSchema())
	bad := pt.New("bad", families.GraphSchema(), "q0", "r")
	bad.DeclareTag("a", 1).DeclareTag("v", 1).MarkVirtual("v")
	_, err := bad.OutputRelation(inst, "v", pt.Options{})
	if want := `pt: output label "v" is virtual`; err == nil || err.Error() != want {
		t.Errorf("virtual label: error %v, want %q", err, want)
	}
	_, err = bad.OutputRelation(inst, "a", pt.Options{})
	if want := bad.Validate(); want == nil || err == nil || err.Error() != want.Error() {
		t.Errorf("invalid transducer: error %v, want %v", err, want)
	}
}

// TestOutputRelationDiamondChain is Proposition 1(3) at scale: the
// unfolding of DiamondChain(40) has more than 2^40 nodes, but its
// output relation needs one configuration per graph node, so a
// 10,000-configuration budget returns every node. A budget below the
// configuration count still trips, and so does a level budget of 2:
// the root spawns every node with an out-edge, so the walk is 3 levels
// deep where the tree is 82.
func TestOutputRelationDiamondChain(t *testing.T) {
	tr := families.UnfoldTransducer()
	inst := families.DiamondChain(40)
	rel, err := tr.OutputRelation(inst, "a", pt.Options{MaxNodes: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	nodes := inst.ActiveDomain()
	if rel.Len() != len(nodes) {
		t.Fatalf("relation has %d tuples, want the %d graph nodes", rel.Len(), len(nodes))
	}
	for _, v := range nodes {
		if !rel.Contains(value.Tuple{v}) {
			t.Fatalf("relation misses graph node %s", v)
		}
	}
	for _, tc := range []struct {
		opts pt.Options
		kind runctl.BudgetKind
	}{
		{pt.Options{MaxNodes: len(nodes) - 1}, runctl.BudgetNodes},
		{pt.Options{MaxDepth: 2}, runctl.BudgetDepth},
	} {
		_, err := tr.OutputRelation(inst, "a", tc.opts)
		var b *pt.ErrBudget
		if !errors.As(err, &b) || b.Kind != tc.kind {
			t.Errorf("%+v: error %v, want a %s budget error", tc.opts, err, tc.kind)
		}
	}
}
