package incr

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"ptx/internal/registrar"
	"ptx/internal/relation"
)

// TestReconcileReexpandsConfigOnce: over a τ1 tree in which K courses
// share the prerequisite S, which requires T, the prereq nodes of S
// (K+1 of them) and of T (K+2) each share one configuration. A delta
// that deletes the unrelated prerequisite D→E dirties every prereq
// node, but the walk re-expands each of those shared configurations
// once: K+3 rule-step expansions (the K distinct courses' prereq nodes,
// S's, T's and D's), read off the memo's lookups, against 3K+4 dirty
// nodes. Report.Dirty still counts every dirty node, and the view
// renders what a fresh view over the new version does.
func TestReconcileReexpandsConfigOnce(t *testing.T) {
	const k = 5
	inst := registrar.NewInstance()
	for _, c := range []string{"S", "T", "D"} {
		registrar.AddCourse(inst, c, "Course "+c, "CS")
	}
	registrar.AddCourse(inst, "E", "Course E", "Math")
	registrar.AddPrereq(inst, "S", "T")
	registrar.AddPrereq(inst, "D", "E")
	for i := 0; i < k; i++ {
		p := fmt.Sprintf("P%d", i)
		registrar.AddCourse(inst, p, "Course "+p, "CS")
		registrar.AddPrereq(inst, p, "S")
	}
	ctx := context.Background()
	v, err := NewView(ctx, registrar.Tau1(), inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	next, _, err := inst.Derive((&relation.Delta{}).Delete("prereq", "D", "E"))
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := v.memo.Stats()
	rep, err := v.Reconcile(ctx, next)
	if err != nil {
		t.Fatal(err)
	}
	h2, m2, _ := v.memo.Stats()
	if got, want := (h2-hits)+(m2-misses), int64(k+3); got != want {
		t.Errorf("repair looked up the memo %d times, want %d: one re-expansion per distinct dirty configuration", got, want)
	}
	if rep.Dirty != 3*k+4 || rep.Fresh != 0 || rep.Dropped == 0 {
		t.Errorf("report dirty=%d fresh=%d dropped=%d, want dirty=%d fresh=0 and a dropped subtree", rep.Dirty, rep.Fresh, rep.Dropped, 3*k+4)
	}
	fresh, err := NewView(ctx, registrar.Tau1(), next, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if _, _, _, err := v.Render(&got, true); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := fresh.Render(&want, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("repaired view renders\n%s\nwant\n%s", got.Bytes(), want.Bytes())
	}
	if len(v.same) != 0 {
		t.Errorf("the walk left %d cutoff verdicts for the next repair", len(v.same))
	}
}
