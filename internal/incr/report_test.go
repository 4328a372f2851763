// TestRepairReportsUnchanged pins what surgical repair reports, field
// by field, on seeded delta sequences: a change to how repair walks,
// matches or names nodes must leave every report exactly as before.
package incr_test

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ptx/internal/families"
	"ptx/internal/incr"
	"ptx/internal/pt"
	"ptx/internal/registrar"
	"ptx/internal/relation"
	"ptx/internal/value"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/repair_reports.golden from the current code")

// layeredRegistrar is the registrar shape the benchmark publishes τ1
// over: layers of width courses, every course outside the last layer
// with two prerequisites in the next one, half of each layer in CS. A
// course deep in the DAG roots many copies of its subtree in τ1's
// unfolding, so one edge flip there changes dozens of subtrees.
func layeredRegistrar(rng *rand.Rand, layers, width int) *relation.Instance {
	inst := registrar.NewInstance()
	for l := 0; l < layers; l++ {
		for j := 0; j < width; j++ {
			dept := "EE"
			if j%2 == 0 {
				dept = "CS"
			}
			registrar.AddCourse(inst, courseID(l, j), fmt.Sprintf("Title %d.%d", l, j), dept)
			if l+1 < layers {
				for _, k := range rng.Perm(width)[:2] {
					registrar.AddPrereq(inst, courseID(l, j), courseID(l+1, k))
				}
			}
		}
	}
	return inst
}

func courseID(l, j int) string { return fmt.Sprintf("C%d%02d", l, j) }

// registrarDeltas draws n deltas over a layered registrar: prerequisite
// edge flips between adjacent layers, back edges that make τ1's stop
// condition fire, and course inserts and deletes.
func registrarDeltas(rng *rand.Rand, inst *relation.Instance, layers, width, n int) []*relation.Delta {
	var out []*relation.Delta
	for len(out) < n {
		d := &relation.Delta{}
		l, j := rng.Intn(layers-1), rng.Intn(width)
		switch rng.Intn(4) {
		case 0, 1: // flip one prerequisite of a course to the next layer
			if ts := inst.Rel("prereq").Sorted(); len(ts) > 0 {
				d.DeleteTuple("prereq", ts[rng.Intn(len(ts))])
			}
			d.Insert("prereq", courseID(l, j), courseID(l+1, rng.Intn(width)))
		case 2: // a back edge: a deeper course requires a shallower one
			d.Insert("prereq", courseID(l+1, rng.Intn(width)), courseID(rng.Intn(l+1), j))
		default: // a course appears or vanishes
			c := fmt.Sprintf("N%02d", rng.Intn(4))
			if inst.Rel("course").Contains(value.Tuple{value.V(c), value.V("New " + c), "CS"}) {
				d.Delete("course", c, "New "+c, "CS")
			} else {
				d.Insert("course", c, "New "+c, "CS").Insert("prereq", courseID(l, j), c)
			}
		}
		if _, err := inst.Apply(d); err != nil {
			panic(err)
		}
		out = append(out, d)
	}
	return out
}

// diamondDeltas draws n deltas over DiamondChain(k)'s vertices, many of
// them back edges to a₀…a_k, so fresh children often repeat an
// ancestor's configuration and must stop.
func diamondDeltas(rng *rand.Rand, inst *relation.Instance, k, n int) []*relation.Delta {
	vertex := func() string {
		if rng.Intn(3) == 0 {
			return fmt.Sprintf("b%03d_%d", rng.Intn(k), 1+rng.Intn(2))
		}
		return fmt.Sprintf("a%03d", rng.Intn(k+1))
	}
	var out []*relation.Delta
	for len(out) < n {
		d := &relation.Delta{}
		if ts := inst.Rel("R").Sorted(); len(ts) > 0 && rng.Intn(3) == 0 {
			d.DeleteTuple("R", ts[rng.Intn(len(ts))])
		} else {
			d.Insert("R", vertex(), vertex())
		}
		if _, err := inst.Apply(d); err != nil {
			panic(err)
		}
		out = append(out, d)
	}
	return out
}

// reportCase is one scenario: a view's inputs and its delta sequence.
type reportCase struct {
	name   string
	tr     *pt.Transducer
	inst   *relation.Instance
	deltas []*relation.Delta
}

func reportCases() []reportCase {
	var cases []reportCase
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := layeredRegistrar(rng, 5, 8)
		deltas := registrarDeltas(rng, inst.Clone(), 5, 8, 10)
		cases = append(cases, reportCase{fmt.Sprintf("tau1-layered-%d", seed), registrar.Tau1(), inst, deltas})
	}
	// Renaming four last-layer courses changes the prerequisite list of
	// every copy of every course that requires one of them: more than
	// maxReportPaths subtrees, so the report is truncated. The back edge
	// after it makes fresh copies stop below the courses it closes.
	rename := &relation.Delta{}
	for j := 0; j < 4; j++ {
		dept := []string{"CS", "EE"}[j%2]
		rename.Delete("course", courseID(4, j), fmt.Sprintf("Title 4.%d", j), dept).
			Insert("course", courseID(4, j), fmt.Sprintf("Renamed 4.%d", j), dept)
	}
	cases = append(cases, reportCase{"tau1-layered-truncated", registrar.Tau1(),
		layeredRegistrar(rand.New(rand.NewSource(7)), 5, 8),
		[]*relation.Delta{rename, (&relation.Delta{}).Insert("prereq", "C300", "C100")}})

	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := families.DiamondChain(5)
		deltas := diamondDeltas(rng, inst.Clone(), 5, 10)
		cases = append(cases, reportCase{fmt.Sprintf("unfold-diamond-%d", seed), families.UnfoldTransducer(), inst, deltas})
	}
	// a001 → a000 is a back edge: the fresh a000 child below each a001
	// repeats an ancestor's configuration and stops.
	cases = append(cases, reportCase{"unfold-diamond-cycle", families.UnfoldTransducer(), families.DiamondChain(4),
		[]*relation.Delta{
			(&relation.Delta{}).Insert("R", "a001", "a000"),
			(&relation.Delta{}).Delete("R", "a000", "b000_1"),
			(&relation.Delta{}).Delete("R", "a001", "a000"),
		}})
	return cases
}

func formatReport(r *incr.Report) string {
	return fmt.Sprintf("dirty=%d fresh=%d dropped=%d nodes=%d queries=%d truncated=%v paths=%s",
		r.Dirty, r.Fresh, r.Dropped, r.Nodes, r.QueriesRun, r.Truncated, strings.Join(r.Paths, ","))
}

func TestRepairReportsUnchanged(t *testing.T) {
	var sb strings.Builder
	for _, c := range reportCases() {
		v, err := incr.NewView(context.Background(), c.tr, c.inst.Clone(),
			incr.Options{Run: pt.Options{MaxNodes: caseBudget}})
		if err != nil {
			t.Fatalf("%s: NewView: %v", c.name, err)
		}
		for i, d := range c.deltas {
			rep, err := v.Apply(context.Background(), d)
			if err != nil {
				t.Fatalf("%s step %d (%s): %v", c.name, i, d, err)
			}
			if c.name == "tau1-layered-truncated" && i == 0 && !rep.Truncated {
				t.Fatal("the rename no longer changes more subtrees than a report names")
			}
			fmt.Fprintf(&sb, "%s %d: %s\n", c.name, i, formatReport(rep))
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "repair_reports.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("report %d differs from the recorded one\ngot:  %s\nwant: %s", i, g, w)
		}
	}
}
