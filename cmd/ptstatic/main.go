// Command ptstatic runs the static analyses of Section 5 on transducer
// specs:
//
//	ptstatic classify    -spec view.pt
//	ptstatic emptiness   -spec view.pt
//	ptstatic membership  -spec view.pt -tree 'r(a,b)'
//	ptstatic equivalence -spec view.pt -spec2 other.pt
//	ptstatic ucq         -spec view.pt -label a
//	ptstatic typecheck   -spec view.pt -dtd schema.dtd
//
// Decidable analyses (Theorems 1 and 2) run the real procedures;
// analyses that are undecidable for the spec's class report that fact
// with the class, mirroring Table II. Typechecking uses the sound
// (incomplete) checker of internal/typecheck.
//
// -retries re-runs an analysis that stopped for a transient reason
// (deadline, candidate budget) with capped backoff; unlike the runner
// CLIs the analyses are restarted from scratch, since decision
// procedures carry no resumable frontier.
//
// Exit codes: 0 decided, 1 error, 2 usage, 3 undecidable for the
// class, 4 undecided (budget or deadline).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ptx/internal/decide"
	"ptx/internal/parser"
	"ptx/internal/pt"
	"ptx/internal/runctl"
	"ptx/internal/supervise"
	"ptx/internal/typecheck"
	"ptx/internal/xmltree"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// exitCode carries the process exit status through panics raised by the
// helpers below; run recovers it at its boundary so the command stays
// testable in-process.
type exitCode int

// app bundles the output streams and retry policy so the subcommand
// handlers stay as straight-line code.
type app struct {
	stdout, stderr io.Writer
	ctx            context.Context
	retries        int
	backoff        supervise.Backoff
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	defer func() {
		if p := recover(); p != nil {
			c, ok := p.(exitCode)
			if !ok {
				panic(p)
			}
			code = int(c)
		}
	}()
	a := &app{stdout: stdout, stderr: stderr, ctx: context.Background()}
	if len(args) < 1 {
		a.usage()
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "transducer spec file")
	spec2Path := fs.String("spec2", "", "second transducer spec (equivalence)")
	treeSrc := fs.String("tree", "", "target tree in canonical form (membership)")
	label := fs.String("label", "", "output label (ucq)")
	dtdPath := fs.String("dtd", "", "DTD file (typecheck)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the analysis (0 = unlimited); exceeding it reports UNDECIDED")
	maxCandidates := fs.Int("max-candidates", 0, "membership: cap the instance-candidate search (0 = default); exceeding it reports UNDECIDED")
	retries := fs.Int("retries", 0, "re-run an analysis that ended UNDECIDED up to N times")
	backoff := fs.Duration("backoff", 10*time.Millisecond, "base delay between retries (doubles per retry, capped at 2s)")
	inject := fs.String("inject", "", "test aid: fail the Nth operation; format op:N:kind as in ptxml")
	if err := fs.Parse(args[1:]); err != nil {
		panic(exitCode(2))
	}
	a.retries = *retries
	a.backoff = supervise.Backoff{Base: *backoff}
	faults, err := runctl.ParseInject(*inject)
	if err != nil {
		fmt.Fprintln(stderr, "ptstatic:", err)
		panic(exitCode(2))
	}
	if faults != nil {
		// Decision procedures build their controllers internally, so the
		// plan travels via the context rather than an options struct.
		a.ctx = runctl.WithPlan(a.ctx, faults)
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		a.ctx, cancel = context.WithTimeout(a.ctx, *timeout)
		defer cancel()
	}

	tr := a.load(*specPath)
	switch cmd {
	case "classify":
		cl := tr.Classify()
		fmt.Fprintf(a.stdout, "%s: %s\n", tr.Name, cl)
		fmt.Fprintf(a.stdout, "  recursive: %v\n", cl.Recursive)
		fmt.Fprintf(a.stdout, "  dependency graph: %d nodes\n", len(tr.DependencyGraph().Nodes()))
	case "emptiness":
		var nonempty bool
		a.retry("emptiness", func() (err error) {
			nonempty, err = decide.EmptinessContext(a.ctx, tr)
			return err
		})
		if nonempty {
			fmt.Fprintln(a.stdout, "NONEMPTY: some instance yields a nontrivial tree")
		} else {
			fmt.Fprintln(a.stdout, "EMPTY: every instance yields the bare root")
		}
	case "membership":
		if *treeSrc == "" {
			a.usage()
		}
		target, err := xmltree.Parse(*treeSrc)
		a.report(err)
		mopts := decide.DefaultMembershipOptions(tr, target)
		if *maxCandidates > 0 {
			mopts.MaxCandidates = *maxCandidates
		}
		var ok bool
		a.retry("membership", func() (err error) {
			ok, err = decide.MembershipContext(a.ctx, tr, target, mopts)
			return err
		})
		if ok {
			fmt.Fprintln(a.stdout, "MEMBER: some instance produces the tree")
		} else {
			fmt.Fprintln(a.stdout, "NOT A MEMBER: no instance produces the tree")
		}
	case "equivalence":
		if *spec2Path == "" {
			a.usage()
		}
		tr2 := a.load(*spec2Path)
		var eq bool
		a.retry("equivalence", func() (err error) {
			eq, err = decide.EquivalenceContext(a.ctx, tr, tr2)
			return err
		})
		if eq {
			fmt.Fprintln(a.stdout, "EQUIVALENT: the transducers agree on every instance")
		} else {
			fmt.Fprintln(a.stdout, "NOT EQUIVALENT: some instance separates them")
		}
	case "ucq":
		if *label == "" {
			a.usage()
		}
		u, err := decide.OutputUCQ(tr, *label)
		a.report(err)
		fmt.Fprintf(a.stdout, "output relation on %q as a union of %d conjunctive queries:\n", *label, len(u))
		for _, q := range u {
			fmt.Fprintf(a.stdout, "  %s\n", q)
		}
	case "typecheck":
		if *dtdPath == "" {
			a.usage()
		}
		src, err := os.ReadFile(*dtdPath)
		a.report(err)
		d, err := parser.ParseDTD(string(src))
		a.report(err)
		v, err := typecheck.Check(tr, d)
		a.report(err)
		if v == nil {
			fmt.Fprintln(a.stdout, "WELL-TYPED: every output tree conforms to the DTD (sound check)")
		} else {
			fmt.Fprintf(a.stdout, "POSSIBLE VIOLATION: %v\n", v)
		}
	default:
		a.usage()
	}
	return 0
}

// retry runs one analysis under the supervision retry policy
// (UNDECIDED outcomes are transient: a retry may pick a different search
// order, within what is left of -timeout, which bounds the whole
// command) and reports the final error.
func (a *app) retry(name string, f func() error) {
	attempts, err := supervise.Retry(a.ctx, a.retries, a.backoff, nil, func(attempt int, err error) {
		fmt.Fprintf(a.stderr, "ptstatic: %s attempt %d failed (%v); retrying\n", name, attempt, err)
	}, func(int) error { return f() })
	if err != nil && attempts > 1 {
		fmt.Fprintf(a.stderr, "ptstatic: %s failed after %d attempts\n", name, attempts)
	}
	a.report(err)
}

func (a *app) load(path string) *pt.Transducer {
	if path == "" {
		a.usage()
	}
	src, err := os.ReadFile(path)
	a.report(err)
	tr, err := parser.ParseTransducer(string(src))
	a.report(err)
	return tr
}

func (a *app) report(err error) {
	if err == nil {
		return
	}
	if ue, ok := err.(*decide.ErrUndecidable); ok {
		fmt.Fprintf(a.stdout, "UNDECIDABLE: %s has no algorithm for %s (Table II)\n", ue.Problem, ue.Class)
		panic(exitCode(3))
	}
	var ce *runctl.ErrCanceled
	if errors.As(err, &ce) {
		fmt.Fprintf(a.stdout, "UNDECIDED: analysis stopped before completion (%v); raise -timeout or add -retries\n", ce.Cause)
		panic(exitCode(4))
	}
	var be *runctl.ErrBudget
	if errors.As(err, &be) {
		fmt.Fprintf(a.stdout, "UNDECIDED: %s budget exhausted (observed %d, limit %d); raise the budget or add -retries\n", be.Kind, be.Observed, be.Limit)
		panic(exitCode(4))
	}
	if runctl.IsTransient(err) {
		fmt.Fprintf(a.stdout, "UNDECIDED: analysis stopped on a transient fault (%v); add -retries\n", err)
		panic(exitCode(4))
	}
	fmt.Fprintln(a.stderr, "ptstatic:", err)
	panic(exitCode(1))
}

func (a *app) usage() {
	fmt.Fprintln(a.stderr, `usage:
  ptstatic classify    -spec view.pt
  ptstatic emptiness   -spec view.pt [-timeout D] [-retries N]
  ptstatic membership  -spec view.pt -tree 'r(a,b)' [-timeout D] [-max-candidates N] [-retries N]
  ptstatic equivalence -spec view.pt -spec2 other.pt [-timeout D] [-retries N]
  ptstatic ucq         -spec view.pt -label a
  ptstatic typecheck   -spec view.pt -dtd schema.dtd

exceeding -timeout or -max-candidates reports UNDECIDED (exit 4) instead of hanging`)
	panic(exitCode(2))
}
