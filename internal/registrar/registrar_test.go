package registrar

import (
	"strings"
	"testing"

	"ptx/internal/logic"
	"ptx/internal/pt"
	"ptx/internal/relation"
	"ptx/internal/xmltree"
)

func TestTau1Chain2(t *testing.T) {
	inst := ChainInstance(2)
	out, err := Tau1().Output(inst, pt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := xmltree.MustParse(
		`db(course(cno(text="CS001"),title(text="Course 1"),prereq(course(cno(text="CS002"),title(text="Course 2"),prereq))),` +
			`course(cno(text="CS002"),title(text="Course 2"),prereq))`)
	if !out.Equal(want) {
		t.Fatalf("tau1 chain(2):\n got  %s\n want %s", out.Canonical(), want.Canonical())
	}
}

func TestTau1DataDrivenDepth(t *testing.T) {
	for n := 1; n <= 6; n++ {
		inst := ChainInstance(n)
		out, err := Tau1().Output(inst, pt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// db → course → (prereq → course)^(n-1) → cno → text: each chain
		// level adds a prereq and a course node, so depth is 2n+2.
		wantDepth := 2*n + 2
		if got := out.Depth(); got != wantDepth {
			t.Errorf("chain(%d): depth = %d, want %d", n, got, wantDepth)
		}
	}
}

func TestTau1CycleTerminates(t *testing.T) {
	// A course that (transitively) requires itself: the stop condition
	// must terminate the unfolding (Example 3.1).
	for n := 1; n <= 4; n++ {
		inst := CycleInstance(n)
		res, err := Tau1().Run(inst, pt.Options{MaxNodes: 100000})
		if err != nil {
			t.Fatalf("cycle(%d): %v", n, err)
		}
		if res.Stats.StopsApplied == 0 {
			t.Errorf("cycle(%d): stop condition never fired", n)
		}
	}
}

func TestTau1SelfLoop(t *testing.T) {
	inst := NewInstance()
	AddCourse(inst, "CS001", "Bootstrap", "CS")
	AddPrereq(inst, "CS001", "CS001")
	out, err := Tau1().Output(inst, pt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// db → course → prereq → course → prereq(stopped): exactly two course
	// nodes on the self-loop path.
	if got := out.CountTag("course"); got != 2 {
		t.Fatalf("self-loop: %d course nodes, want 2\n%s", got, out.Canonical())
	}
}

func TestTau2ClosureChain3(t *testing.T) {
	inst := ChainInstance(3)
	out, err := Tau2().Output(inst, pt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Depth-three shape: under course CS001, the prereq element lists the
	// whole closure {CS002, CS003}.
	want := xmltree.MustParse(
		`db(` +
			`course(prereq(cno(text="CS002"),cno(text="CS003")),cno(text="CS001"),title(text="Course 1")),` +
			`course(prereq(cno(text="CS003")),cno(text="CS002"),title(text="Course 2")),` +
			`course(prereq,cno(text="CS003"),title(text="Course 3")))`)
	if !out.Equal(want) {
		t.Fatalf("tau2 chain(3):\n got  %s\n want %s", out.Canonical(), want.Canonical())
	}
	// The virtual tag never appears in the output.
	for _, l := range out.Labels() {
		if l == "l" {
			t.Fatal("virtual tag l leaked into output")
		}
	}
}

func TestTau2FixedDepth(t *testing.T) {
	// τ2's output depth is constant (the closure is flattened), no matter
	// how deep the prerequisite hierarchy is.
	for n := 1; n <= 6; n++ {
		out, err := Tau2().Output(ChainInstance(n), pt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Depth(); got != 5 && !(n == 1 && got == 4) {
			// db, course, prereq, cno, text = 5 (n=1 has empty prereq).
			t.Errorf("tau2 chain(%d): depth=%d", n, got)
		}
	}
}

func TestTau2OnCycle(t *testing.T) {
	inst := CycleInstance(3)
	out, err := Tau2().Output(inst, pt.Options{MaxNodes: 100000})
	if err != nil {
		t.Fatal(err)
	}
	// On a 3-cycle the closure of every course is all three courses.
	first := out.Root.Children[0]
	if first.Tag != "course" {
		t.Fatalf("expected course, got %s", first.Tag)
	}
	prereq := first.Children[0]
	if prereq.Tag != "prereq" {
		t.Fatalf("expected prereq, got %s", prereq.Tag)
	}
	if len(prereq.Children) != 3 {
		t.Fatalf("closure on 3-cycle has %d cnos, want 3:\n%s", len(prereq.Children), out.Canonical())
	}
}

func TestTau3ExcludesDBPrereq(t *testing.T) {
	inst := SampleInstance()
	out, err := Tau3().Output(inst, pt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.CountTag("course"); got != 5 {
		t.Fatalf("tau3: %d courses, want 5 (all but CS302)\n%s", got, out.Canonical())
	}
	if strings.Contains(out.Canonical(), "CS302") {
		t.Fatalf("tau3 must exclude CS302:\n%s", out.Canonical())
	}
	if out.Depth() != 4 { // db, course, cno/title, text
		t.Fatalf("tau3 depth = %d, want 4", out.Depth())
	}
}

func TestClassification(t *testing.T) {
	cases := []struct {
		tr   *pt.Transducer
		want string
	}{
		{Tau1(), "PT(CQ, tuple, normal)"},
		{Tau2(), "PT(FO, relation, virtual)"},
		{Tau3(), "PTnr(FO, tuple, normal)"},
	}
	for _, c := range cases {
		if got := c.tr.Classify().String(); got != c.want {
			t.Errorf("%s: classified as %s, want %s", c.tr.Name, got, c.want)
		}
	}
}

func TestClassInclusionOrder(t *testing.T) {
	small := pt.Class{Logic: logic.CQ, Store: pt.TupleStore, Output: pt.NormalOutput}
	big := pt.Class{Logic: logic.IFP, Store: pt.RelationStore, Output: pt.VirtualOutput, Recursive: true}
	if !small.Within(big) {
		t.Error("PTnr(CQ,tuple,normal) should be within PT(IFP,relation,virtual)")
	}
	if big.Within(small) {
		t.Error("PT(IFP,relation,virtual) should not be within PTnr(CQ,tuple,normal)")
	}
}

func TestValidateAll(t *testing.T) {
	for _, tr := range []*pt.Transducer{Tau1(), Tau2(), Tau3()} {
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", tr.Name, err)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	inst := SampleInstance()
	tr := Tau1()
	first, err := tr.Output(inst, pt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := tr.Output(inst, pt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !first.Equal(again) {
			t.Fatalf("run %d differs from first run", i)
		}
	}
}

func TestOutputRelation(t *testing.T) {
	// Treat τ1 as a relational query with output label course: the union
	// of all course registers is every CS course reachable through some
	// prerequisite chain from a CS course — here simply all CS courses.
	inst := ChainInstance(3)
	rel, err := Tau1().OutputRelation(inst, "course", pt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 3 {
		t.Fatalf("output relation has %d tuples, want 3: %s", rel.Len(), rel)
	}
}

func TestBudgetEnforced(t *testing.T) {
	inst := DiamondInstance(8)
	_, err := Tau1().Run(inst, pt.Options{MaxNodes: 50})
	if err == nil {
		t.Fatal("expected budget error")
	}
	if _, ok := err.(*pt.ErrBudget); !ok {
		t.Fatalf("expected *pt.ErrBudget, got %T: %v", err, err)
	}
}

// TestTau1Tau2Consistency: τ2's flattened prereq closure under a course
// equals the set of course numbers occurring anywhere in τ1's unfolded
// prereq subtree of that course — the two views present the same
// information at different depths (Example 3.2's point).
func TestTau1Tau2Consistency(t *testing.T) {
	for _, inst := range []*relationInstance{
		{SampleInstance()}, {ChainInstance(4)}, {CycleInstance(3)},
	} {
		o1, err := Tau1().Output(inst.i, pt.Options{MaxNodes: 100000})
		if err != nil {
			t.Fatal(err)
		}
		o2, err := Tau2().Output(inst.i, pt.Options{MaxNodes: 100000})
		if err != nil {
			t.Fatal(err)
		}
		c1 := topCourses(o1)
		c2 := topCourses(o2)
		if len(c1) != len(c2) {
			t.Fatalf("course counts differ: %d vs %d", len(c1), len(c2))
		}
		for cno, node1 := range c1 {
			node2, ok := c2[cno]
			if !ok {
				t.Fatalf("course %s missing from τ2", cno)
			}
			// τ1: all cno values strictly below the course's prereq child.
			want := map[string]bool{}
			collectCnos(prereqChild(node1), want)
			delete(want, cno) // a cyclic course lists itself in τ1's subtree stop node
			// τ2: the direct cno children of the prereq element.
			got := map[string]bool{}
			for _, c := range prereqChild(node2).Children {
				if c.Tag == "cno" {
					got[c.Children[0].Text] = true
				}
			}
			delete(got, cno)
			if len(want) != len(got) {
				t.Fatalf("course %s: τ1 closure %v vs τ2 closure %v", cno, want, got)
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("course %s: %s in τ1 subtree but not τ2 closure", cno, k)
				}
			}
		}
	}
}

type relationInstance struct{ i *relation.Instance }

func topCourses(tree *xmltree.Tree) map[string]*xmltree.Node {
	out := map[string]*xmltree.Node{}
	for _, c := range tree.Root.Children {
		if c.Tag == "course" {
			out[cnoOf(c)] = c
		}
	}
	return out
}

func cnoOf(course *xmltree.Node) string {
	for _, c := range course.Children {
		if c.Tag == "cno" {
			return c.Children[0].Text
		}
	}
	return ""
}

func prereqChild(course *xmltree.Node) *xmltree.Node {
	for _, c := range course.Children {
		if c.Tag == "prereq" {
			return c
		}
	}
	return &xmltree.Node{}
}

// collectCnos gathers the cno text values in a subtree.
func collectCnos(n *xmltree.Node, out map[string]bool) {
	if n == nil {
		return
	}
	if n.Tag == "cno" && len(n.Children) == 1 {
		out[n.Children[0].Text] = true
	}
	for _, c := range n.Children {
		collectCnos(c, out)
	}
}
