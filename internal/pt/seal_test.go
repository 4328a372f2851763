package pt_test

import (
	"slices"
	"sync"
	"testing"

	"ptx/internal/logic"
	"ptx/internal/pt"
	"ptx/internal/registrar"
	"ptx/internal/relation"
)

// readersFixture has one query per kind of read: ¬A(x) reads the active
// domain, E(x, y) names E, and B is read by no query of its own.
func readersFixture() (tr *pt.Transducer, dom, edge *logic.Query) {
	x, y := logic.Var("x"), logic.Var("y")
	s := relation.NewSchema().MustDeclare("A", 1).MustDeclare("B", 1).MustDeclare("E", 2)
	dom = logic.MustQuery([]logic.Var{x}, nil, &logic.Not{F: logic.R("A", x)})
	edge = logic.MustQuery([]logic.Var{x, y}, nil, logic.R("E", x, y))
	tr = pt.New("readers", s, "q0", "r").DeclareTag("a", 1).DeclareTag("e", 2)
	tr.AddRule("q0", "r", pt.Item("q", "a", dom), pt.Item("q", "e", edge))
	tr.AddRule("q", "a")
	tr.AddRule("q", "e")
	return tr, dom, edge
}

// mustPanic reports whether f panicked, failing the test if it did not.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// A validated transducer is fixed: every builder panics on it.
func TestSealedBuildersPanic(t *testing.T) {
	tr, _, _ := readersFixture()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "DeclareTag", func() { tr.DeclareTag("b", 1) })
	mustPanic(t, "redeclaring a tag", func() { tr.DeclareTag("a", 1) })
	mustPanic(t, "MarkVirtual", func() { tr.MarkVirtual("a") })
	mustPanic(t, "AddRule", func() { tr.AddRule("q2", "a") })
	if tr.Virtual["a"] || len(tr.Tags()) != 3 {
		t.Fatalf("a panicking builder changed the transducer: virtual %v, tags %v", tr.Virtual, tr.Tags())
	}
}

// A failed Validate seals nothing: the builders still work, and the
// Validate that then succeeds seals.
func TestFailedValidateDoesNotSeal(t *testing.T) {
	x := logic.Var("x")
	tr := pt.New("late", relation.NewSchema().MustDeclare("A", 1), "q0", "r").DeclareTag("a", 1)
	tr.AddRule("q", "a")
	if err := tr.Validate(); err == nil {
		t.Fatal("a transducer without a start rule validated")
	}
	mustPanic(t, "Readers before a successful Validate", func() { tr.Readers([]string{"A"}) })
	tr.AddRule("q0", "r", pt.Item("q", "a", logic.MustQuery([]logic.Var{x}, nil, logic.R("A", x))))
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if rules, queries := tr.Readers([]string{"A"}); len(rules) != 1 || len(queries) != 1 {
		t.Fatalf("readers of A = %v, %v; want the start rule and its query", rules, queries)
	}
	mustPanic(t, "AddRule after the successful Validate", func() { tr.AddRule("q", "b") })
}

// The seal's table: a query reads the relations it names, and a query
// reading the active domain reads every relation, in the schema or not.
func TestReadersDomainQuery(t *testing.T) {
	tr, dom, edge := readersFixture()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	start, _ := tr.Rule("q0", "r")
	for _, rel := range []string{"A", "B", "E", "notInSchema"} {
		rules, queries := tr.Readers([]string{rel})
		want := []*logic.Query{dom}
		if rel == "E" {
			want = append(want, edge)
		}
		if !slices.Equal(queries, want) || !slices.Equal(rules, []*pt.Rule{start}) {
			t.Errorf("readers of %s = %v, %v; want %v and the start rule", rel, rules, queries, want)
		}
	}
	if rules, queries := tr.Readers(nil); rules != nil || queries != nil {
		t.Errorf("readers of no relation = %v, %v; want none", rules, queries)
	}
}

// Two goroutines' first runs on one unsealed transducer validate it
// concurrently; under -race this checks that sealing only reads it.
func TestConcurrentFirstRunsSeal(t *testing.T) {
	tr, inst := registrar.Tau1(), registrar.SampleInstance()
	var wg sync.WaitGroup
	out := make([]string, 2)
	errs := make([]error, 2)
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := tr.Run(inst, pt.Options{})
			if err == nil {
				out[i] = res.Xi.Canonical()
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if out[0] != out[1] {
		t.Fatalf("the two runs disagree:\n%s\n%s", out[0], out[1])
	}
	mustPanic(t, "AddRule after the runs", func() { tr.AddRule("q", "late") })
}

// TestSealedValidateAllocs: every run validates its transducer, so on a
// sealed one Validate is one atomic load. Re-checking τ1 from scratch
// cost 23 allocations per call.
func TestSealedValidateAllocs(t *testing.T) {
	if pt.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tr := registrar.Tau1()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("%.0f allocations per sealed Validate, want 0", allocs)
	}
}
