// Core incremental-repair tests: every Apply must leave the view
// byte-identical to a from-scratch run over the mutated database (the
// determinism oracle), bookkeeping must not leak, a repair must run
// under the view's options, and broken-view recovery must behave.
package incr_test

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"ptx/internal/families"
	"ptx/internal/incr"
	"ptx/internal/logic"
	"ptx/internal/pt"
	"ptx/internal/registrar"
	"ptx/internal/relation"
	"ptx/internal/runctl"
)

// catalogSchema/catalogTransducer model the wide-catalog workload: a
// flat root listing many products, each with a text name and its
// features. A 1-tuple product delta dirties ONLY the root rule, so
// repair reuses every untouched product subtree — the shape where
// incremental maintenance wins by the width of the catalog.
func catalogSchema() *relation.Schema {
	return relation.NewSchema().MustDeclare("product", 3).MustDeclare("feature", 2)
}

func catalogTransducer() *pt.Transducer {
	s, n, c, f := logic.Var("s"), logic.Var("n"), logic.Var("c"), logic.Var("f")
	t := pt.New("catalog", catalogSchema(), "q0", "catalog")
	t.DeclareTag("product", 2).DeclareTag("feat", 1).DeclareTag("text", 1)
	t.AddRule("q0", "catalog", pt.Item("qp", "product",
		logic.MustQuery([]logic.Var{s, n}, nil, logic.Ex([]logic.Var{c}, logic.R("product", s, n, c)))))
	t.AddRule("qp", "product",
		pt.Item("qt", "text", logic.MustQuery([]logic.Var{n}, nil,
			logic.Ex([]logic.Var{s}, logic.R(pt.RegRel, s, n)))),
		pt.Item("qf", "feat", logic.MustQuery([]logic.Var{f}, nil,
			logic.Ex([]logic.Var{s, n}, logic.Conj(logic.R(pt.RegRel, s, n), logic.R("feature", s, f))))))
	t.AddRule("qf", "feat", pt.Item("qt", "text",
		logic.MustQuery([]logic.Var{f}, nil, logic.R(pt.RegRel, f))))
	t.AddRule("qt", "text")
	return t
}

func catalogInstance(products, featsPer int) *relation.Instance {
	inst := relation.NewInstance(catalogSchema())
	for i := 0; i < products; i++ {
		sku := "sku" + pad3(i)
		inst.Add("product", sku, "Item "+pad3(i), "cat"+pad3(i%7))
		for j := 0; j < featsPer; j++ {
			inst.Add("feature", sku, "f"+pad3(j))
		}
	}
	return inst
}

func pad3(i int) string {
	d := []byte{'0' + byte(i/100%10), '0' + byte(i/10%10), '0' + byte(i%10)}
	return string(d)
}

// fullCanonical is the oracle: a from-scratch run over inst.
func fullCanonical(t *testing.T, tr *pt.Transducer, inst *relation.Instance) string {
	t.Helper()
	res, err := tr.Run(inst, pt.Options{})
	if err != nil {
		t.Fatalf("oracle run: %v", err)
	}
	var sb strings.Builder
	if err := res.Xi.WriteCanonicalVirtual(&sb, tr.Virtual); err != nil {
		t.Fatalf("oracle serialize: %v", err)
	}
	return sb.String()
}

func viewCanonical(t *testing.T, v *incr.View) string {
	t.Helper()
	b, _, err := v.Snapshot(true)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return string(b)
}

// applyBoth drives the view and the oracle instance with the same delta
// and asserts byte identity.
func applyBoth(t *testing.T, v *incr.View, tr *pt.Transducer, oracle *relation.Instance, d *relation.Delta) *incr.Report {
	t.Helper()
	rep, err := v.Apply(context.Background(), d)
	if err != nil {
		t.Fatalf("Apply(%s): %v", d, err)
	}
	if _, err := oracle.Apply(d); err != nil {
		t.Fatalf("oracle Apply(%s): %v", d, err)
	}
	want := fullCanonical(t, tr, oracle)
	if got := viewCanonical(t, v); got != want {
		t.Fatalf("after %s: view diverged from full rebuild\nview:   %s\nrebuild: %s", d, got, want)
	}
	return rep
}

func newView(t *testing.T, tr *pt.Transducer, inst *relation.Instance, opts incr.Options) *incr.View {
	t.Helper()
	v, err := incr.NewView(context.Background(), tr, inst.Clone(), opts)
	if err != nil {
		t.Fatalf("NewView: %v", err)
	}
	return v
}

func TestViewMatchesFullRunTau1(t *testing.T) {
	tr := registrar.Tau1()
	oracle := registrar.SampleInstance()
	v := newView(t, tr, oracle, incr.Options{})
	if got, want := viewCanonical(t, v), fullCanonical(t, tr, oracle); got != want {
		t.Fatalf("initial build diverged:\n%s\n%s", got, want)
	}
	deltas := []*relation.Delta{
		(&relation.Delta{}).Insert("course", "CS500", "Distributed Systems", "CS"),
		(&relation.Delta{}).Insert("prereq", "CS500", "CS401"),
		(&relation.Delta{}).Delete("prereq", "CS401", "CS301"),
		(&relation.Delta{}).Delete("course", "CS301", "Algorithms", "CS").Insert("course", "CS301", "Algorithms II", "CS"),
		(&relation.Delta{}).Delete("course", "CS500", "Distributed Systems", "CS"),
	}
	for i, d := range deltas {
		rep := applyBoth(t, v, tr, oracle, d)
		if rep.Version != uint64(i)+2 {
			t.Fatalf("delta %d: version %d, want %d", i, rep.Version, i+2)
		}
	}
}

func TestViewMatchesFullRunUnfold(t *testing.T) {
	tr := families.UnfoldTransducer()
	oracle := families.DiamondChain(4)
	// The unfold rule reads R at every node, so any R-delta dirties the
	// whole tree.
	v := newView(t, tr, oracle, incr.Options{})
	for _, d := range []*relation.Delta{
		(&relation.Delta{}).Insert("R", "a004", "z001"),
		(&relation.Delta{}).Insert("R", "z001", "a000"), // creates a cycle → stop condition
		(&relation.Delta{}).Delete("R", "a000", "b000_1"),
		(&relation.Delta{}).Delete("R", "z001", "a000").Delete("R", "a004", "z001"),
	} {
		rep := applyBoth(t, v, tr, oracle, d)
		if rep.FullRebuild {
			t.Fatalf("delta %s: rebuilt a healthy view", d)
		}
	}
}

// TestRepairMatchesStateAndTag: siblings from different items can carry
// equal registers, so a child is reused only for a spec with its state
// and tag too. Moving a value between A, B and C turns an (qa, a) child
// into an (qa, b) or a (qb, a) one with the same register, whose subtree
// differs: a leaf, a text child, or a u child.
func TestRepairMatchesStateAndTag(t *testing.T) {
	x := logic.Var("x")
	schema := relation.NewSchema().MustDeclare("A", 1).MustDeclare("B", 1).MustDeclare("C", 1)
	of := func(rel string) *logic.Query { return logic.MustQuery([]logic.Var{x}, nil, logic.R(rel, x)) }
	tr := pt.New("moves", schema, "q0", "r")
	tr.DeclareTag("a", 1).DeclareTag("b", 1).DeclareTag("u", 1).DeclareTag("text", 1)
	tr.AddRule("q0", "r", pt.Item("qa", "a", of("A")), pt.Item("qa", "b", of("B")), pt.Item("qb", "a", of("C")))
	tr.AddRule("qa", "a")
	tr.AddRule("qa", "b", pt.Item("q", "text", of(pt.RegRel)))
	tr.AddRule("qb", "a", pt.Item("q", "u", of(pt.RegRel)))
	tr.AddRule("q", "u")
	tr.AddRule("q", "text")
	oracle := relation.NewInstance(schema)
	oracle.Add("A", "v")
	oracle.Add("B", "w")
	v := newView(t, tr, oracle, incr.Options{})
	for _, d := range []*relation.Delta{
		(&relation.Delta{}).Delete("A", "v").Insert("B", "v"),
		(&relation.Delta{}).Delete("B", "v").Insert("C", "v"),
		(&relation.Delta{}).Delete("C", "v").Insert("A", "v").Insert("C", "w"),
	} {
		if rep := applyBoth(t, v, tr, oracle, d); rep.Fresh == 0 || rep.Dropped == 0 {
			t.Fatalf("%s: Fresh=%d Dropped=%d, want a child replaced", d, rep.Fresh, rep.Dropped)
		}
	}
}

func TestViewMatchesFullRunCatalog(t *testing.T) {
	tr := catalogTransducer()
	oracle := catalogInstance(20, 2)
	v := newView(t, tr, oracle, incr.Options{})
	rep := applyBoth(t, v, tr, oracle,
		(&relation.Delta{}).Insert("product", "sku999", "Late Addition", "cat001"))
	if rep.FullRebuild {
		t.Fatal("1-product delta should not trigger a rebuild")
	}
	// Only the root is dirty: one re-expansion plus the fresh product
	// subtree. The other 20 product subtrees are reused, so the query
	// count stays far below a rebuild's.
	if rep.Dirty != 1 {
		t.Fatalf("Dirty = %d, want 1 (the root)", rep.Dirty)
	}
	if rep.QueriesRun >= 10 {
		t.Fatalf("QueriesRun = %d for a 1-tuple delta, want a handful", rep.QueriesRun)
	}
	if len(rep.Paths) != 1 || rep.Paths[0] != "/catalog[1]" {
		t.Fatalf("Paths = %v, want [/catalog[1]]", rep.Paths)
	}
	// Feature deltas dirty only product rules: one fresh feat subtree
	// appears, and a later deletion drops it again.
	rep = applyBoth(t, v, tr, oracle, (&relation.Delta{}).Insert("feature", "sku003", "f999"))
	if rep.FullRebuild || rep.Fresh == 0 || rep.Dropped != 0 {
		t.Fatalf("feature insert: FullRebuild=%v Fresh=%d Dropped=%d", rep.FullRebuild, rep.Fresh, rep.Dropped)
	}
	rep = applyBoth(t, v, tr, oracle, (&relation.Delta{}).Delete("feature", "sku003", "f999"))
	if rep.FullRebuild || rep.Dropped == 0 {
		t.Fatalf("feature delete: FullRebuild=%v Dropped=%d", rep.FullRebuild, rep.Dropped)
	}
}

func TestNoopDeltaKeepsVersion(t *testing.T) {
	tr := registrar.Tau1()
	inst := registrar.SampleInstance()
	v := newView(t, tr, inst, incr.Options{})
	rep, err := v.Apply(context.Background(),
		(&relation.Delta{}).Insert("course", "CS401", "Compilers", "CS").Delete("prereq", "XX", "YY"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != 1 || rep.Effective != 0 {
		t.Fatalf("no-op delta: version=%d effective=%d", rep.Version, rep.Effective)
	}
	if _, wait, _ := v.Changes(1); wait == nil {
		t.Fatal("no wait channel")
	} else {
		select {
		case <-wait:
			t.Fatal("no-op delta woke watchers")
		default:
		}
	}
}

func TestInvalidDeltaRejected(t *testing.T) {
	tr := registrar.Tau1()
	inst := registrar.SampleInstance()
	v := newView(t, tr, inst, incr.Options{})
	before := viewCanonical(t, v)
	if _, err := v.Apply(context.Background(), (&relation.Delta{}).Insert("nope", "x")); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if _, err := v.Apply(context.Background(), (&relation.Delta{}).Insert("course", "only-one")); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if got := viewCanonical(t, v); got != before || v.Version() != 1 {
		t.Fatal("failed Apply mutated the view")
	}
}

// TestRepairFullDamageInPlace: the unfold family dirties 100% of the
// tree on any R-delta, and the view still repairs it in place: by
// Proposition 1(1) reuse is sound whatever share of the tree is dirty.
// The new edge leaves the root's children as they were, so the report
// names only changed subtrees below the root: the a003 nodes.
func TestRepairFullDamageInPlace(t *testing.T) {
	tr := families.UnfoldTransducer()
	oracle := families.DiamondChain(4)
	v := newView(t, tr, oracle, incr.Options{})
	rep := applyBoth(t, v, tr, oracle, (&relation.Delta{}).Insert("R", "a003", "z001"))
	if rep.FullRebuild || len(rep.Paths) == 0 {
		t.Fatalf("FullRebuild=%v paths=%v, want a repair in place", rep.FullRebuild, rep.Paths)
	}
	for _, p := range rep.Paths {
		if !strings.HasPrefix(p, "/r[1]/") {
			t.Fatalf("repair path %s is not below the root", p)
		}
	}
}

// TestRepairHonoursRunOptions: a repair's re-expansions run under the
// view's options. A product delete re-expands only the catalog root and
// creates no node, so the walk runs the repair's one query, and a fault
// plan failing that query stops it: the view reports broken, and the
// next Apply rebuilds it.
func TestRepairHonoursRunOptions(t *testing.T) {
	tr := catalogTransducer()
	oracle := catalogInstance(8, 1)
	built := newView(t, tr, oracle, incr.Options{}).Stats().QueriesTotal
	injected := errors.New("injected fault")
	plan := &runctl.FaultPlan{Op: runctl.OpQuery, N: built + 1, Err: injected}
	v := newView(t, tr, oracle, incr.Options{Run: pt.Options{Faults: plan}})

	d := (&relation.Delta{}).Delete("product", "sku003", "Item 003", "cat003")
	if _, err := v.Apply(context.Background(), d); !errors.Is(err, injected) {
		t.Fatalf("Apply under a fault on the repair's first query: %v, want the injected fault", err)
	}
	if _, _, err := v.Snapshot(true); err != incr.ErrBroken {
		t.Fatalf("Snapshot after the failed repair: %v, want ErrBroken", err)
	}
	if _, err := oracle.Apply(d); err != nil {
		t.Fatal(err)
	}
	rep, err := v.Apply(context.Background(), &relation.Delta{})
	if err != nil || !rep.FullRebuild {
		t.Fatalf("healing Apply: %v, report %+v", err, rep)
	}
	if got, want := viewCanonical(t, v), fullCanonical(t, tr, oracle); got != want {
		t.Fatal("healed view diverged from oracle")
	}
}

// TestRepairBoundedByMaxNodes: a repaired tree is bounded by MaxNodes
// as a run's tree is, so a repair fails, and breaks its view, exactly
// when a run over the new instance exceeds the budget. The budget is
// the base tree's size; each product insert adds two nodes.
func TestRepairBoundedByMaxNodes(t *testing.T) {
	tr := catalogTransducer()
	oracle := catalogInstance(10, 1)
	base, err := tr.Run(oracle, pt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := pt.Options{MaxNodes: base.Stats.Nodes}
	v := newView(t, tr, oracle, incr.Options{Run: opts})
	for i, d := range []*relation.Delta{
		(&relation.Delta{}).Delete("product", "sku000", "Item 000", "cat000"),
		(&relation.Delta{}).Insert("product", "skuA", "Item A", "cat000"),
		(&relation.Delta{}).Insert("product", "skuB", "Item B", "cat000"),
		(&relation.Delta{}).Insert("product", "skuC", "Item C", "cat000"),
	} {
		_, applyErr := v.Apply(context.Background(), d)
		if _, err := oracle.Apply(d); err != nil {
			t.Fatal(err)
		}
		_, runErr := tr.Run(oracle, opts)
		if (applyErr == nil) != (runErr == nil) {
			t.Fatalf("step %d: repair error %v, run error %v", i, applyErr, runErr)
		}
		if runErr != nil {
			if i != 3 {
				t.Fatalf("step %d: %v before the budget is full", i, runErr)
			}
			var be *runctl.ErrBudget
			if !errors.As(applyErr, &be) || be.Kind != runctl.BudgetNodes || !v.Stats().Broken {
				t.Fatalf("step %d: repair error %v, broken %v; want a nodes budget error and a broken view", i, applyErr, v.Stats().Broken)
			}
		}
	}
}

// Bookkeeping must not leak: after a delta storm, the meta map tracks
// exactly the live tree.
func TestMetaDoesNotLeak(t *testing.T) {
	tr := catalogTransducer()
	oracle := catalogInstance(10, 2)
	v := newView(t, tr, oracle, incr.Options{})
	for i := 0; i < 30; i++ {
		sku := "skuX" + pad3(i%5)
		d := (&relation.Delta{}).Insert("product", sku, "Churn", "cat000")
		if i%2 == 1 {
			d = (&relation.Delta{}).Delete("product", sku, "Churn", "cat000")
		}
		applyBoth(t, v, tr, oracle, d)
	}
	st := v.Stats()
	b, _, err := v.Snapshot(true)
	if err != nil || len(b) == 0 {
		t.Fatalf("snapshot: %v", err)
	}
	res, err := tr.Run(oracle, pt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != res.Stats.Nodes {
		t.Fatalf("meta tracks %d nodes, live tree has %d — leak or loss", st.Nodes, res.Stats.Nodes)
	}
}

// A budget-killed repair leaves the view broken; Snapshot says so with
// the typed error, and the next successful Apply heals it.
func TestBrokenViewRecovers(t *testing.T) {
	tr := catalogTransducer()
	oracle := catalogInstance(8, 1)
	v := newView(t, tr, oracle, incr.Options{})

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the repair dies instantly
	if _, err := v.Apply(ctx, (&relation.Delta{}).Insert("product", "skuZ", "Doomed", "cat000")); err == nil {
		t.Fatal("canceled Apply reported success")
	}
	if _, _, err := v.Snapshot(true); err != incr.ErrBroken {
		t.Fatalf("broken view Snapshot err = %v, want ErrBroken", err)
	}
	if !v.Stats().Broken {
		t.Fatal("Stats().Broken = false")
	}

	// The delta WAS applied to the instance; heal with an empty delta.
	if _, err := oracle.Apply((&relation.Delta{}).Insert("product", "skuZ", "Doomed", "cat000")); err != nil {
		t.Fatal(err)
	}
	rep, err := v.Apply(context.Background(), &relation.Delta{})
	if err != nil {
		t.Fatalf("healing Apply: %v", err)
	}
	if !rep.FullRebuild {
		t.Fatal("healing Apply should rebuild")
	}
	if got, want := viewCanonical(t, v), fullCanonical(t, tr, oracle); got != want {
		t.Fatal("healed view diverged from oracle")
	}
}

func TestChangesAndNotify(t *testing.T) {
	tr := catalogTransducer()
	oracle := catalogInstance(5, 1)
	v := newView(t, tr, oracle, incr.Options{})

	reports, wait, complete := v.Changes(1)
	if len(reports) != 0 || !complete {
		t.Fatalf("fresh view Changes(1) = %d reports, complete=%v", len(reports), complete)
	}
	done := make(chan struct{})
	go func() { <-wait; close(done) }()
	applyBoth(t, v, tr, oracle, (&relation.Delta{}).Insert("product", "skuN", "New", "cat000"))
	<-done

	reports, _, complete = v.Changes(1)
	if len(reports) != 1 || !complete || reports[0].Version != 2 {
		t.Fatalf("Changes(1) after one delta: %d reports complete=%v", len(reports), complete)
	}
	// A watcher far behind a long history must be told to resync.
	for i := 0; i < 70; i++ {
		applyBoth(t, v, tr, oracle, (&relation.Delta{}).Insert("feature", "skuN", "f"+pad3(i)))
	}
	if _, _, complete = v.Changes(1); complete {
		t.Fatal("watcher beyond the history ring not told to resync")
	}
}

// TestReconcile: a view whose history was rewritten (it applied A then
// B, but the history is now A then C) reconciles to the target in one
// report and renders exactly what a fresh view over the target does. A
// target equal to the view's contents emits nothing.
func TestReconcile(t *testing.T) {
	tr := registrar.Tau1()
	base := registrar.SampleInstance()
	a := (&relation.Delta{}).Insert("course", "CS500", "Distributed Systems", "CS")
	b := (&relation.Delta{}).Insert("prereq", "CS500", "CS401").Delete("prereq", "CS401", "CS301")
	c := (&relation.Delta{}).Insert("prereq", "CS301", "CS500")
	v := newView(t, tr, base, incr.Options{})
	for _, d := range []*relation.Delta{a, b} {
		if _, err := v.Apply(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	target := base.Clone()
	for _, d := range []*relation.Delta{a, c} {
		if _, err := target.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	want := viewCanonical(t, newView(t, tr, target, incr.Options{}))
	before := v.Version()
	rep, err := v.Reconcile(context.Background(), target)
	if err != nil {
		t.Fatalf("Reconcile: %v", err)
	}
	if got := viewCanonical(t, v); got != want {
		t.Fatalf("reconciled view differs from a fresh view over the target\ngot:  %s\nwant: %s", got, want)
	}
	if rep.Version != before+1 || v.Version() != before+1 {
		t.Fatalf("version %d -> %d (report %d), want one step", before, v.Version(), rep.Version)
	}
	if reports, _, _ := v.Changes(before); len(reports) != 1 || reports[0] != rep {
		t.Fatalf("Reconcile emitted %d reports, want exactly its own", len(reports))
	}

	// Reconciling to what the view already holds is a no-op.
	rep, err = v.Reconcile(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Effective != 0 || v.Version() != before+1 {
		t.Fatalf("equal target: effective=%d version=%d, want 0 and %d", rep.Effective, v.Version(), before+1)
	}
	if reports, _, _ := v.Changes(before + 1); len(reports) != 0 {
		t.Fatalf("equal target emitted %d reports", len(reports))
	}
}

// TestReconcileDerivedVersions: a view built over a version and
// reconciled along a chain of versions, each Derived from the last by
// one τ1 delta, renders what a fresh view over each version does and
// never writes one: every relation of every version hashes as it did
// before the view read it. A new instance with the view's contents is
// adopted with no report and no version change.
func TestReconcileDerivedVersions(t *testing.T) {
	tr := registrar.Tau1()
	cur := registrar.SampleInstance()
	v, err := incr.NewView(context.Background(), tr, cur, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hashes := func(inst *relation.Instance) map[string]uint64 {
		h := map[string]uint64{}
		for _, n := range inst.Schema().Names() {
			h[n] = inst.Rel(n).Hash()
		}
		return h
	}
	type version struct {
		inst   *relation.Instance
		hashes map[string]uint64
	}
	seen := []version{{cur, hashes(cur)}}
	for i, d := range []*relation.Delta{
		(&relation.Delta{}).Insert("course", "CS500", "Distributed Systems", "CS"),
		(&relation.Delta{}).Insert("prereq", "CS500", "CS401").Delete("prereq", "CS401", "CS301"),
		(&relation.Delta{}).Insert("prereq", "CS301", "CS500"),
		(&relation.Delta{}).Delete("course", "CS500", "Distributed Systems", "CS"),
	} {
		next, eff, err := cur.Derive(d)
		if err != nil {
			t.Fatal(err)
		}
		seen = append(seen, version{next, hashes(next)})
		before := v.Version()
		rep, err := v.Reconcile(context.Background(), next)
		if err != nil {
			t.Fatalf("delta %d: Reconcile: %v", i, err)
		}
		if rep.Effective != eff.Len() || v.Version() != before+1 {
			t.Fatalf("delta %d: %d effective ops, version %d -> %d; want %d ops and one step", i, rep.Effective, before, v.Version(), eff.Len())
		}
		if got, want := viewCanonical(t, v), viewCanonical(t, newView(t, tr, next, incr.Options{})); got != want {
			t.Fatalf("delta %d: reconciled view differs from a fresh view over the target\ngot:  %s\nwant: %s", i, got, want)
		}
		cur = next
	}
	for i, ver := range seen {
		for n, h := range hashes(ver.inst) {
			if h != ver.hashes[n] {
				t.Fatalf("version %d: relation %s changed after the view read it", i, n)
			}
		}
	}

	same, _, err := cur.Derive((&relation.Delta{}).Insert("course", "CS401", "Compilers", "CS"))
	if err != nil {
		t.Fatal(err)
	}
	before := v.Version()
	rep, err := v.Reconcile(context.Background(), same)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Effective != 0 || v.Version() != before {
		t.Fatalf("equal target: effective=%d version %d -> %d", rep.Effective, before, v.Version())
	}
	if reports, _, _ := v.Changes(before); len(reports) != 0 {
		t.Fatalf("equal target emitted %d reports", len(reports))
	}
	if _, _, inst, err := v.Render(io.Discard, true); err != nil || inst != same {
		t.Fatalf("equal target: the view reads it %v, render error %v", inst == same, err)
	}
}
