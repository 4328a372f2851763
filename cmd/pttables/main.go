// Command pttables regenerates every table and figure of the paper's
// evaluation from the implementations in this repository:
//
//	pttables -fig1    Figure 1: the three registrar views
//	pttables -table1  Table I: language → smallest transducer class
//	pttables -table2  Table II: decision problems (decidable cells run,
//	                  undecidable cells validated via their reductions)
//	pttables -table3  Table III: relational expressiveness round trips
//	pttables -prop1   Proposition 1: output-size blowups
//	pttables -prop3   Proposition 3: PTIME data complexity sweep
//	pttables -all     everything
//
// -retries N re-runs a block that failed for a transient reason
// (deadline, budget, contained panic) with capped backoff; a block
// restarts from its beginning, so partial output may repeat on stderr
// notice. Exit codes: 0 success, 1 error, 2 usage, 4 budget/deadline.
//
// EXPERIMENTS.md records the paper-vs-measured outcome for each block.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"ptx/internal/datalog"
	"ptx/internal/decide"
	"ptx/internal/families"
	"ptx/internal/langs"
	"ptx/internal/logic"
	"ptx/internal/machines"
	"ptx/internal/pt"
	"ptx/internal/reduction"
	"ptx/internal/registrar"
	"ptx/internal/relation"
	"ptx/internal/runctl"
	"ptx/internal/supervise"
	"ptx/internal/value"
	"ptx/internal/xmltree"
)

// tablesCtx carries the -timeout deadline into every transformation and
// decision call; exceeding it aborts the current block with a typed
// error instead of hanging the whole regeneration.
var tablesCtx = context.Background()

// stdout and stderrW are the command's streams, replaced by the
// in-process exit-code tests.
var (
	stdout  io.Writer = os.Stdout
	stderrW io.Writer = os.Stderr
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	stdout, stderrW = out, errw
	fs := flag.NewFlagSet("pttables", flag.ContinueOnError)
	fs.SetOutput(errw)
	fig1 := fs.Bool("fig1", false, "Figure 1 views")
	table1 := fs.Bool("table1", false, "Table I")
	table2 := fs.Bool("table2", false, "Table II")
	table3 := fs.Bool("table3", false, "Table III")
	prop1 := fs.Bool("prop1", false, "Proposition 1 blowups")
	prop3 := fs.Bool("prop3", false, "Proposition 3 sweep")
	all := fs.Bool("all", false, "run everything")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the whole regeneration (0 = unlimited)")
	retries := fs.Int("retries", 0, "re-run a transiently failed block up to N times")
	backoff := fs.Duration("backoff", 10*time.Millisecond, "base delay between block retries (doubles per retry, capped at 2s)")
	inject := fs.String("inject", "", "test aid: fail the Nth operation; format op:N:kind as in ptxml")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	faults, err := runctl.ParseInject(*inject)
	if err != nil {
		fmt.Fprintln(errw, "pttables:", err)
		return 2
	}

	tablesCtx = context.Background()
	if faults != nil {
		// Every block builds its controllers from tablesCtx, so a
		// context-carried plan reaches all of them without new knobs.
		tablesCtx = runctl.WithPlan(tablesCtx, faults)
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		tablesCtx, cancel = context.WithTimeout(tablesCtx, *timeout)
		defer cancel()
	}

	ran, code := false, 0
	runB := func(want bool, name string, f func()) {
		if !(want || *all) || code != 0 {
			if want || *all {
				ran = true
			}
			return
		}
		ran = true
		if err := runBlock(name, *retries, supervise.Backoff{Base: *backoff}, f); err != nil {
			code = exitFor(err)
		}
	}
	runB(*fig1, "fig1", runFig1)
	runB(*table1, "table1", runTable1)
	runB(*table2, "table2", runTable2)
	runB(*table3, "table3", runTable3)
	runB(*prop1, "prop1", runProp1)
	runB(*prop3, "prop3", runProp3)
	if !ran {
		fs.Usage()
		return 2
	}
	return code
}

// blockFailure carries an error out of a block through must/must2;
// runBlock recovers it at the block boundary so transient failures can
// be retried without unwinding the whole process.
type blockFailure struct{ err error }

// runBlock executes one regeneration block under the supervision retry
// policy: a block that fails transiently (deadline, budget, contained
// panic) restarts from its beginning.
func runBlock(name string, retries int, b supervise.Backoff, f func()) error {
	attempt := func(int) (err error) {
		defer func() {
			if p := recover(); p != nil {
				bf, ok := p.(blockFailure)
				if !ok {
					panic(p)
				}
				err = bf.err
			}
		}()
		f()
		return nil
	}
	_, err := supervise.Retry(tablesCtx, retries, b, nil, func(n int, err error) {
		fmt.Fprintf(stderrW, "pttables: block %s attempt %d failed (%v); retrying from the top of the block\n", name, n, err)
	}, attempt)
	return err
}

// exitFor maps a block's terminal error to the process exit code.
func exitFor(err error) int {
	var ce *runctl.ErrCanceled
	var be *runctl.ErrBudget
	if errors.As(err, &ce) || errors.As(err, &be) || runctl.IsTransient(err) {
		fmt.Fprintf(stderrW, "pttables: aborted: %v (raise -timeout or the budget, or add -retries)\n", err)
		return 4
	}
	fmt.Fprintln(stderrW, "pttables:", err)
	return 1
}

func header(s string) {
	fmt.Fprintf(stdout, "\n=== %s ===\n\n", s)
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(blockFailure{err})
	}
	return v
}

// --- Figure 1 -----------------------------------------------------------

func runFig1() {
	header("Figure 1: the registrar views τ1, τ2, τ3")
	inst := registrar.SampleInstance()
	for _, tr := range []*pt.Transducer{registrar.Tau1(), registrar.Tau2(), registrar.Tau3()} {
		out := must(tr.OutputContext(tablesCtx, inst, pt.Options{MaxNodes: 100000}))
		fmt.Fprintf(stdout, "%s  —  %s\n", tr.Name, tr.Classify())
		fmt.Fprint(stdout, "  canonical: ")
		if err := out.WriteCanonical(stdout); err != nil {
			panic(blockFailure{err})
		}
		fmt.Fprintln(stdout)
		fmt.Fprintf(stdout, "  size=%d depth=%d\n\n", out.Size(), out.Depth())
	}
}

// --- Table I ------------------------------------------------------------

func runTable1() {
	header("Table I: characterization of existing XML publishing languages")
	fmt.Fprintf(stdout, "%-28s %-20s %-28s %-28s\n", "product", "method", "Table I class", "representative's class")
	for _, row := range langs.TableI() {
		got, err := row.CheckRow()
		status := got.String()
		if err != nil {
			status = "ERROR: " + err.Error()
		}
		fmt.Fprintf(stdout, "%-28s %-20s %-28s %-28s\n", row.Product, row.Method, row.PaperClass, status)
	}
}

// --- Table II -----------------------------------------------------------

func runTable2() {
	header("Table II: decision problems")

	// Emptiness, PT(CQ, S, normal): PTIME — scale the transducer size.
	fmt.Fprintln(stdout, "emptiness, PT(CQ, S, normal) — PTIME (Thm 1(1)); scaling the spec:")
	for _, n := range []int{4, 8, 16, 32} {
		tr := chainTransducer(n)
		start := time.Now()
		nonempty := must(decide.EmptinessContext(tablesCtx, tr))
		fmt.Fprintf(stdout, "  %3d rules: nonempty=%v in %v\n", n, nonempty, time.Since(start).Round(time.Microsecond))
	}

	// Emptiness, PT(CQ, S, virtual): NP-complete — 3SAT agreement.
	fmt.Fprintln(stdout, "\nemptiness, PT(CQ, S, virtual) — NP-complete (Thm 1(1)); 3SAT reduction agreement:")
	rng := rand.New(rand.NewSource(7))
	agree, total := 0, 0
	for i := 0; i < 15; i++ {
		f := randomCNF(rng, 3, 3)
		tr := must(reduction.EmptinessFrom3SAT(f))
		nonempty := must(decide.EmptinessContext(tablesCtx, tr))
		total++
		if nonempty == f.Satisfiable() {
			agree++
		}
	}
	fmt.Fprintf(stdout, "  decision == brute-force SAT on %d/%d random formulas\n", agree, total)

	// Membership, PT(CQ, tuple, normal): Σp2 — small-model search.
	fmt.Fprintln(stdout, "\nmembership, PT(CQ, tuple, normal) — Σp2-complete (Thm 1(2)); small-model search:")
	tr := chainTransducer(2)
	for _, tree := range []string{"r(a0(a1))", "r(a0(a1),a0(a1))", "r(a0)", "r(b)"} {
		target := must(xmltree.Parse(tree))
		start := time.Now()
		ok, err := decide.MembershipContext(tablesCtx, tr, target, decide.MembershipOptions{
			FreshValues: 3, MaxTuplesPerRel: 3, MaxCandidates: 500000})
		if err != nil {
			fmt.Fprintf(stdout, "  %-10s error: %v\n", tree, err)
			continue
		}
		fmt.Fprintf(stdout, "  %-10s member=%v in %v\n", tree, ok, time.Since(start).Round(time.Microsecond))
	}

	// Equivalence, PTnr(CQ, tuple, O): Πp3-complete — Claim 4 checker.
	fmt.Fprintln(stdout, "\nequivalence, PTnr(CQ, tuple, O) — Πp3-complete (Thm 2(4)); Claim 4 checker:")
	eqYes := must(decide.EquivalenceContext(tablesCtx, chainTransducer(3), chainTransducer(3)))
	eqNo := must(decide.EquivalenceContext(tablesCtx, chainTransducer(3), chainTransducer(4)))
	fmt.Fprintf(stdout, "  identical specs equivalent: %v; different depths equivalent: %v\n", eqYes, eqNo)

	// Undecidable cells, validated through their reductions.
	fmt.Fprintln(stdout, "\nundecidable cells (validated via the reduction constructions):")
	halting := &machines.TwoRegisterMachine{
		Instrs: []machines.Instr{
			machines.AddInstr(machines.R1, 1),
			machines.SubInstr(machines.R1, 2, 1),
		},
		Halt: 2,
	}
	t1, t2 := must2(reduction.EquivalenceFrom2RM(halting))
	inst := reduction.EncodeRun(halting, 100)
	o1 := must(t1.OutputContext(tablesCtx, inst, pt.Options{MaxNodes: 100000}))
	o2 := must(t2.OutputContext(tablesCtx, inst, pt.Options{MaxNodes: 100000}))
	fmt.Fprintf(stdout, "  equivalence ← 2RM halting (Thm 1(3)): halting run separates τ1/τ2: %v\n", !o1.Equal(o2))

	dfa := &machines.TwoHeadDFA{States: 2, Start: 0, Accept: 1,
		Delta: map[machines.DFAKey]machines.DFAMove{
			{State: 0, In1: '1', In2: '1'}: {State: 1, Move1: machines.Right, Move2: machines.Right},
		}}
	trA, target := must2(reduction.MembershipFrom2HeadDFA(dfa))
	out := must(trA.OutputContext(tablesCtx, reduction.EncodeWord("1"), pt.Options{MaxNodes: 100000}))
	fmt.Fprintf(stdout, "  membership ← 2-head DFA emptiness (Thm 1(2)): accepted word hits target tree: %v\n",
		out.Equal(target))

	fmt.Fprintln(stdout, "  emptiness/membership/equivalence for FO/IFP ← FO query equivalence (Prop. 2): see ptstatic (UNDECIDABLE verdicts)")
}

func must2[A, B any](a A, b B, err error) (A, B) {
	if err != nil {
		panic(blockFailure{err})
	}
	return a, b
}

// --- Table III ----------------------------------------------------------

func runTable3() {
	header("Table III: relational expressiveness")

	// PT(CQ, tuple, O) = LinDatalog (Thm 3(2)): both translation
	// directions agree on random instances.
	fmt.Fprintln(stdout, "PT(CQ, tuple, O) = LinDatalog (Thm 3(2)):")
	tr := registrar.Tau1()
	prog := must(datalog.FromTransducer(tr, "course"))
	okA := 0
	for n := 1; n <= 5; n++ {
		inst := registrar.ChainInstance(n)
		a := must(tr.OutputRelationContext(tablesCtx, inst, "course", pt.Options{}))
		b := must(prog.Eval(inst))
		if a.Equal(b) {
			okA++
		}
	}
	fmt.Fprintf(stdout, "  τ1 → LinDatalog: output relations agree on %d/5 chain instances\n", okA)

	tc := tcProgram()
	tr2 := must(datalog.ToTransducer(tc))
	okB, rng := 0, rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		inst := randomGraph(rng, 5, 7)
		a := must(tc.Eval(inst))
		b := must(tr2.OutputRelationContext(tablesCtx, inst, "ans", pt.Options{MaxNodes: 500000}))
		if a.Equal(b) {
			okB++
		}
	}
	fmt.Fprintf(stdout, "  LinDatalog(TC) → transducer: answers agree on %d/8 random graphs\n", okB)

	// PTnr(CQ, tuple, O) = UCQ (Prop. 6(1)).
	fmt.Fprintln(stdout, "\nPTnr(CQ, tuple, O) = UCQ (Prop. 6(1)):")
	fmt.Fprintln(stdout, "  path-query extraction validated in decide tests (OutputUCQ == execution)")

	// PT(CQ, relation, O) ⊄ PT(FO, tuple, O) (Prop. 4(5,7)): the
	// equal-length two-leg walk query.
	fmt.Fprintln(stdout, "\nPT(CQ, relation, O) witness (Prop. 4(5), corrected construction):")
	via := families.ViaTransducer()
	inst := relation.NewInstance(families.ViaSchema())
	for _, e := range [][2]string{{"c1", "x"}, {"x", "c2"}, {"c2", "y"}, {"y", "c3"}} {
		inst.Add("E", e[0], e[1])
	}
	rel := must(via.OutputRelationContext(tablesCtx, inst, "ao", pt.Options{MaxNodes: 100000}))
	fmt.Fprintf(stdout, "  equal-length c1→c2→c3 legs fire the relation-register query: %v (%s)\n", !rel.Empty(), rel)

	// Monotonicity of CQ transducers (used by Prop. 4(6) and Thm 5).
	fmt.Fprintln(stdout, "\nCQ transducers are monotone (Prop. 4(6) proof idea):")
	mono := true
	rngM := rand.New(rand.NewSource(11))
	for i := 0; i < 10; i++ {
		small := randomGraph(rngM, 4, 5)
		big := small.Clone()
		big.Add("E", string(value.Of(rngM.Intn(4))), string(value.Of(rngM.Intn(4))))
		u := families.UnfoldTransducer()
		// UnfoldTransducer uses relation R; rename instance.
		si := relation.NewInstance(families.GraphSchema())
		bi := relation.NewInstance(families.GraphSchema())
		small.Rel("E").Each(func(t value.Tuple) bool { si.Add("R", string(t[0]), string(t[1])); return true })
		big.Rel("E").Each(func(t value.Tuple) bool { bi.Add("R", string(t[0]), string(t[1])); return true })
		a := must(u.OutputRelationContext(tablesCtx, si, "a", pt.Options{MaxNodes: 500000}))
		b := must(u.OutputRelationContext(tablesCtx, bi, "a", pt.Options{MaxNodes: 500000}))
		if !a.SubsetOf(b) {
			mono = false
		}
	}
	fmt.Fprintf(stdout, "  Rτ(I0) ⊆ Rτ(I1) for I0 ⊆ I1 on 10/10 random pairs: %v\n", mono)

	// PT(IFP, tuple, O) = IFP (Thm 3(5)): IFP closure via SQL/XML view.
	fmt.Fprintln(stdout, "\nPT(IFP, tuple, O) = IFP (Thm 3(5)): IFP-query views compile and run (see langs tests)")
}

// --- Proposition 1 ------------------------------------------------------

func runProp1() {
	header("Proposition 1: output-size blowups")
	fmt.Fprintln(stdout, "(3) PT(CQ, tuple, normal) — diamond chains, |τ1(Iₙ)| ≥ 2ⁿ:")
	unfold := families.UnfoldTransducer()
	for n := 2; n <= 10; n += 2 {
		inst := families.DiamondChain(n)
		start := time.Now()
		out := must(unfold.OutputContext(tablesCtx, inst, pt.Options{}))
		fmt.Fprintf(stdout, "  n=%2d |I|=%3d |τ(I)|=%8d (2^n=%7d) %v\n",
			n, inst.Size(), out.Size(), 1<<n, time.Since(start).Round(time.Millisecond))
	}
	fmt.Fprintln(stdout, "\n(4) PT(CQ, relation, normal) — binary counter, |τ2(Jₙ)| ≥ 2^(2ⁿ):")
	counter := families.CounterTransducer()
	for n := 1; n <= 3; n++ {
		inst := families.CounterInstance(n)
		start := time.Now()
		out := must(counter.OutputContext(tablesCtx, inst, pt.Options{MaxNodes: 5_000_000}))
		fmt.Fprintf(stdout, "  n=%d |J|=%2d |τ(J)|=%8d (2^2^n=%5d) %v\n",
			n, inst.Size(), out.Size(), 1<<(1<<n), time.Since(start).Round(time.Millisecond))
	}
}

// --- Proposition 3 ------------------------------------------------------

func runProp3() {
	header("Proposition 3: PTnr(IFP, tuple, O) evaluates in PTIME")
	tr := must(langs.ForXMLView())
	for _, n := range []int{20, 40, 80, 160} {
		inst := registrar.ChainInstance(n)
		start := time.Now()
		out := must(tr.OutputContext(tablesCtx, inst, pt.Options{}))
		fmt.Fprintf(stdout, "  |I|=%4d nodes=%5d elapsed=%v\n", inst.Size(), out.Size(),
			time.Since(start).Round(time.Millisecond))
	}
}

// --- helpers ------------------------------------------------------------

// chainTransducer builds a nonrecursive CQ chain of n levels a0→a1→…:
// level i copies the register, so the spec's size scales with n.
func chainTransducer(n int) *pt.Transducer {
	s := relation.NewSchema().MustDeclare("R1", 1)
	x := logic.Var("x")
	t := pt.New(fmt.Sprintf("chain%d", n), s, "q0", "r")
	for i := 0; i < n; i++ {
		t.DeclareTag(fmt.Sprintf("a%d", i), 1)
	}
	t.AddRule("q0", "r", pt.Item("q1", "a0",
		logic.MustQuery([]logic.Var{x}, nil, logic.R("R1", x))))
	for i := 1; i < n; i++ {
		t.AddRule(fmt.Sprintf("q%d", i), fmt.Sprintf("a%d", i-1),
			pt.Item(fmt.Sprintf("q%d", i+1), fmt.Sprintf("a%d", i),
				logic.MustQuery([]logic.Var{x}, nil, logic.R(pt.RegRel, x))))
	}
	return t
}

func tcProgram() *datalog.Program {
	x, y, z := logic.Var("x"), logic.Var("y"), logic.Var("z")
	return &datalog.Program{
		EDB:    relation.NewSchema().MustDeclare("E", 2),
		Output: "tc",
		Rules: []*datalog.Rule{
			{Head: logic.R("tc", x, y), Body: []*logic.Atom{logic.R("E", x, y)}},
			{Head: logic.R("tc", x, z), Body: []*logic.Atom{logic.R("tc", x, y), logic.R("E", y, z)}},
		},
	}
}

func randomGraph(rng *rand.Rand, n, m int) *relation.Instance {
	inst := relation.NewInstance(relation.NewSchema().MustDeclare("E", 2))
	for k := 0; k < m; k++ {
		inst.Add("E", string(value.Of(rng.Intn(n))), string(value.Of(rng.Intn(n))))
	}
	return inst
}

func randomCNF(rng *rand.Rand, vars, clauses int) *reduction.CNF {
	f := &reduction.CNF{NumVars: vars}
	for i := 0; i < clauses; i++ {
		var c reduction.Clause
		for j := 0; j < 3; j++ {
			c[j] = reduction.Literal{Var: 1 + rng.Intn(vars), Neg: rng.Intn(2) == 1}
		}
		f.Clauses = append(f.Clauses, c)
	}
	return f
}
