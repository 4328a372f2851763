package decide

import (
	"context"
	"math/rand"
	"testing"

	"ptx/internal/cq"
	"ptx/internal/logic"
	"ptx/internal/pt"
	"ptx/internal/relation"
	"ptx/internal/testutil"
)

// randomView builds a random two-level PT(CQ, tuple, normal)
// transducer over E(2): the root spawns an a-child per result of a
// level-1 query; a-nodes optionally spawn c-children via a level-2
// query over the register. It is nonrecursive unless recursive is set,
// which gives (q, a) a last item unfolding a-nodes along E.
func randomView(rng *rand.Rand, recursive bool) *pt.Transducer {
	x, y, z := logic.Var("x"), logic.Var("y"), logic.Var("z")
	level1 := []logic.Formula{
		logic.Ex([]logic.Var{y}, logic.R("E", x, y)),
		logic.Ex([]logic.Var{y}, logic.R("E", y, x)),
		logic.R("E", x, x),
		logic.Ex([]logic.Var{y}, logic.Conj(logic.R("E", x, y), logic.NeqT(x, y))),
		logic.Ex([]logic.Var{y}, logic.Conj(logic.R("E", x, y), logic.EqT(y, logic.Const("0")))),
	}
	level2 := []logic.Formula{
		logic.Ex([]logic.Var{x}, logic.Conj(logic.R(pt.RegRel, x), logic.R("E", x, z))),
		logic.Ex([]logic.Var{x}, logic.Conj(logic.R(pt.RegRel, x), logic.R("E", z, x))),
		logic.R(pt.RegRel, z),
		logic.Conj(logic.R(pt.RegRel, z), logic.NeqT(z, logic.Const("0"))),
	}
	s := relation.NewSchema().MustDeclare("E", 2)
	t := pt.New("fuzz", s, "q0", "r")
	t.DeclareTag("a", 1)
	t.AddRule("q0", "r", pt.Item("q", "a",
		logic.MustQuery([]logic.Var{x}, nil, level1[rng.Intn(len(level1))])))
	var items []pt.RHS
	if rng.Intn(2) == 0 {
		t.DeclareTag("c", 1)
		items = append(items, pt.Item("qc", "c",
			logic.MustQuery([]logic.Var{z}, nil, level2[rng.Intn(len(level2))])))
		t.AddRule("qc", "c")
	}
	if recursive {
		// (q, a) unfolds itself along E: a's successors are a's again.
		items = append(items, pt.Item("q", "a", logic.MustQuery([]logic.Var{x}, nil,
			logic.Ex([]logic.Var{y}, logic.Conj(logic.R(pt.RegRel, y), logic.R("E", y, x))))))
	}
	t.AddRule("q", "a", items...)
	return t
}

// allInstances enumerates every E-instance over the given domain.
func allInstances(domain []string) []*relation.Instance {
	var tuples [][2]string
	for _, a := range domain {
		for _, b := range domain {
			tuples = append(tuples, [2]string{a, b})
		}
	}
	n := len(tuples)
	var out []*relation.Instance
	for mask := 0; mask < 1<<n; mask++ {
		inst := relation.NewInstance(relation.NewSchema().MustDeclare("E", 2))
		for i, tp := range tuples {
			if mask&(1<<i) != 0 {
				inst.Add("E", tp[0], tp[1])
			}
		}
		out = append(out, inst)
	}
	return out
}

// separated reports whether some instance distinguishes the transducers.
func separated(t *testing.T, t1, t2 *pt.Transducer, insts []*relation.Instance) (bool, *relation.Instance) {
	t.Helper()
	for _, inst := range insts {
		o1, err := t1.Output(inst, pt.Options{MaxNodes: 10000})
		if err != nil {
			t.Fatal(err)
		}
		o2, err := t2.Output(inst, pt.Options{MaxNodes: 10000})
		if err != nil {
			t.Fatal(err)
		}
		if !o1.Equal(o2) {
			return true, inst
		}
	}
	return false, nil
}

// TestEquivalenceFuzzAgainstBruteForce cross-validates the Claim 4
// equivalence checker against exhaustive enumeration of all E-instances
// over a 2-element domain (extending to 3 elements when the checker
// claims inequivalence but no small witness exists — inequivalence may
// genuinely need a larger domain).
func TestEquivalenceFuzzAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	small := allInstances([]string{"0", "1"})
	var medium []*relation.Instance // built lazily: 512 instances

	for trial := 0; trial < 120; trial++ {
		t1, t2 := randomView(rng, false), randomView(rng, false)
		decided, err := Equivalence(t1, t2)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s\n%s", trial, err, t1, t2)
		}
		sep, witness := separated(t, t1, t2, small)
		if decided && sep {
			t.Fatalf("trial %d: checker says equivalent but instance %s separates\n%s\n%s",
				trial, witness, t1, t2)
		}
		if !decided && !sep {
			// Look for a witness over a 3-element domain before declaring
			// a checker bug.
			if medium == nil {
				medium = allInstances([]string{"0", "1", "2"})
			}
			sep3, _ := separated(t, t1, t2, medium)
			if !sep3 {
				t.Fatalf("trial %d: checker says inequivalent but no witness over 3 elements\n%s\n%s",
					trial, t1, t2)
			}
		}
	}
}

// TestMembershipFuzzAgainstExecution: every tree the transducer actually
// produces on a small instance is a member; mutated trees that no
// execution produced are (usually) refuted by the search.
func TestMembershipFuzzAgainstExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	insts := allInstances([]string{"0", "1"})
	for trial := 0; trial < 25; trial++ {
		tr := randomView(rng, false)
		inst := insts[rng.Intn(len(insts))]
		produced, err := tr.Output(inst, pt.Options{MaxNodes: 10000})
		if err != nil {
			t.Fatal(err)
		}
		if produced.Size() > 6 {
			continue // keep the search cheap
		}
		ok, err := Membership(tr, produced, MembershipOptions{
			FreshValues: 2, MaxTuplesPerRel: 4, MaxCandidates: 2_000_000})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !ok {
			t.Fatalf("trial %d: produced tree %s not recognized as a member of\n%s\n(instance %s)",
				trial, produced.Canonical(), tr, inst)
		}
	}
}

// TestOutputUCQFuzz: the UCQ extraction agrees with execution on every
// random view and instance.
func TestOutputUCQFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	insts := allInstances([]string{"0", "1"})
	for trial := 0; trial < 40; trial++ {
		tr := randomView(rng, false)
		label := "a"
		if _, ok := tr.Arities["c"]; ok && rng.Intn(2) == 0 {
			label = "c"
		}
		u, err := OutputUCQ(tr, label)
		if err != nil {
			t.Fatal(err)
		}
		inst := insts[rng.Intn(len(insts))]
		fromTr, err := tr.OutputRelation(inst, label, pt.Options{MaxNodes: 10000})
		if err != nil {
			t.Fatal(err)
		}
		if len(u) == 0 {
			if !fromTr.Empty() {
				t.Fatalf("trial %d: empty UCQ but nonempty execution", trial)
			}
			continue
		}
		fromU, err := cq.EvalUCQ(u, inst)
		if err != nil {
			t.Fatal(err)
		}
		if !fromTr.Equal(fromU) {
			t.Fatalf("trial %d (%s): execution %s vs UCQ %s\n%s\ninstance %s",
				trial, label, fromTr, fromU, tr, inst)
		}
	}
}

// FuzzOutputRelation checks pt.OutputRelation, which walks the
// configuration graph, against the tree reference, which builds ξ and
// unites its label registers, on random views over every E-instance on
// a 3-element domain. recursive adds an unfolding item (q,a) → (q,a)
// over the register's successors, so the ancestor stop fires and the
// tree can repeat configurations the walk steps once.
func FuzzOutputRelation(f *testing.F) {
	for i := int64(0); i < 8; i++ {
		f.Add(i, uint16(i*61), i%2 == 0, i%3 == 0)
	}
	insts := allInstances([]string{"0", "1", "2"})
	f.Fuzz(func(t *testing.T, seed int64, pick uint16, recursive, useC bool) {
		tr := randomView(rand.New(rand.NewSource(seed)), recursive)
		label := "a"
		if _, ok := tr.Arities["c"]; ok && useC {
			label = "c"
		}
		inst := insts[int(pick)%len(insts)]
		opts := pt.Options{MaxNodes: 10000}
		want, err := testutil.TreeRelation(context.Background(), tr, inst, label, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.OutputRelation(inst, label, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("label %s: OutputRelation %s, tree reference %s\n%s\ninstance %s", label, got, want, tr, inst)
		}
	})
}
