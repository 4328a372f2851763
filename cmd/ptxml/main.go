// Command ptxml runs a publishing transducer over a relational instance
// and prints the resulting XML document.
//
// Usage:
//
//	ptxml -spec view.pt -data facts.db [-canonical] [-stats] [-workers N]
//	      [-max-nodes N] [-max-depth N] [-timeout D]
//	      [-cache off|query|subtree] [-cache-size N]
//	      [-retries N] [-backoff D] [-checkpoint FILE] [-resume FILE]
//	      [-delta deltas.txt]
//
// The spec syntax is documented in internal/parser; the data file holds
// one fact per line, e.g. course(CS401, Compilers, CS).
//
// With -delta the run goes through the incremental engine
// (internal/incr): the document is built once, then each
// commit-separated batch of +fact(…)/-fact(…) lines is applied as a
// live-view repair, and the FINAL document is printed — byte-identical
// to a fresh run over the mutated database (the engine's differential
// suite proves that equality). -stats adds a per-delta repair line.
//
// -delta also reads a server's write-ahead log directly: point it at a
// WAL directory (ptserve -store-dir's wal/ subdirectory) or a single
// segment file (sniffed by the "ptx-wal v1" magic) and the committed
// records replay offline, one repair per record, in log order — the
// same view of history a recovering server serves. -db filters the
// replay to one database's records; deltas outside the spec's schema
// are skipped either way, mirroring the server's replay. A corrupt
// segment (bit-flip, torn tail) is a typed diagnosis and exit 1:
// offline inspection fails loudly where the live recovery path heals.
//
// With -retries, -checkpoint or -resume the run goes through the
// supervision layer (internal/supervise): transient failures — budget
// exhaustion, deadline expiry, contained panics — are retried with
// capped exponential backoff, progress carries forward across attempts,
// and a failed run can leave a checkpoint file that a later invocation
// resumes with byte-identical output.
//
// Exit codes: 0 success, 1 error, 2 usage, 4 resource budget exhausted,
// 5 deadline exceeded / canceled. Budgets matter because relation-store
// transducers can legitimately produce doubly-exponential output
// (Proposition 1(4)): a hostile or buggy spec is indistinguishable from
// a slow one without them.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"ptx/internal/incr"
	"ptx/internal/parser"
	"ptx/internal/pt"
	"ptx/internal/relation"
	"ptx/internal/runctl"
	"ptx/internal/supervise"
	"ptx/internal/wal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ptxml", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "transducer spec file")
	dataPath := fs.String("data", "", "relational data file")
	canonical := fs.Bool("canonical", false, "print the canonical one-line form instead of XML")
	stats := fs.Bool("stats", false, "print run statistics to stderr")
	workers := fs.Int("workers", 1, "parallel subtree expansion workers")
	maxNodes := fs.Int("max-nodes", 1_000_000, "node budget (0 = unlimited)")
	maxNodesOld := fs.Int("max", 0, "deprecated alias for -max-nodes")
	maxDepth := fs.Int("max-depth", 0, "tree-depth budget (0 = unlimited)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the run (0 = unlimited)")
	cacheFlag := fs.String("cache", "off", "memoization level: off, query or subtree (subtree needs -max-nodes 0 -max-depth 0)")
	cacheSize := fs.Int("cache-size", 0, "cache capacity in entries (0 = default)")
	retries := fs.Int("retries", 0, "retry transient failures up to N times; budgets are fresh per attempt and progress accumulates")
	backoff := fs.Duration("backoff", 10*time.Millisecond, "base delay between retries (doubles per retry, capped at 2s)")
	checkpointPath := fs.String("checkpoint", "", "write a resumable checkpoint to FILE when the run fails")
	resumePath := fs.String("resume", "", "resume from a checkpoint FILE instead of starting fresh")
	inject := fs.String("inject", "", "test aid: fail the Nth operation; format op:N:transient|permanent|internal (ops: query, node, eval)")
	deltaPath := fs.String("delta", "", "replay a delta script (+fact/-fact/commit lines) or a WAL directory/segment through the incremental engine and print the final document")
	deltaDB := fs.String("db", "", "with -delta on a WAL: replay only this database's records")
	planFlag := fs.String("plan", "on", "compiled query plans: on or off (off = the naive reference evaluator, for differential debugging)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *planFlag != "on" && *planFlag != "off" {
		fmt.Fprintf(stderr, "ptxml: bad -plan %q: want on or off\n", *planFlag)
		return 2
	}
	cacheMode, err := pt.ParseCacheMode(*cacheFlag)
	if err != nil {
		fmt.Fprintln(stderr, "ptxml:", err)
		return 2
	}
	if *specPath == "" || *dataPath == "" {
		fmt.Fprintln(stderr, "usage: ptxml -spec view.pt -data facts.db [-timeout 1s] [-max-nodes N] [-max-depth N] [-retries N] [-checkpoint ck] [-resume ck]")
		return 2
	}
	if *maxNodesOld > 0 {
		*maxNodes = *maxNodesOld
	}
	faults, err := runctl.ParseInject(*inject)
	if err != nil {
		fmt.Fprintln(stderr, "ptxml:", err)
		return 2
	}

	spec, err := os.ReadFile(*specPath)
	if err != nil {
		return fail(stderr, err)
	}
	tr, err := parser.ParseTransducer(string(spec))
	if err != nil {
		return fail(stderr, err)
	}
	data, err := os.ReadFile(*dataPath)
	if err != nil {
		return fail(stderr, err)
	}
	inst, err := parser.ParseInstance(string(data), tr.Schema)
	if err != nil {
		return fail(stderr, err)
	}

	opts := pt.Options{
		MaxNodes:  *maxNodes,
		MaxDepth:  *maxDepth,
		Workers:   *workers,
		Limits:    &runctl.Limits{Timeout: *timeout},
		Cache:     cacheMode,
		CacheSize: *cacheSize,
		Faults:    faults,
		NoPlan:    *planFlag == "off",
	}

	if *deltaPath != "" {
		if *retries > 0 || *checkpointPath != "" || *resumePath != "" {
			fmt.Fprintln(stderr, "ptxml: -delta cannot be combined with -retries, -checkpoint or -resume")
			return 2
		}
		return runDelta(tr, inst, opts, *deltaPath, *deltaDB, *canonical, *stats, stdout, stderr)
	}
	if *deltaDB != "" {
		fmt.Fprintln(stderr, "ptxml: -db requires -delta")
		return 2
	}

	var res *pt.Result
	attempts := 1
	start := time.Now()
	if supervised := *retries > 0 || *checkpointPath != "" || *resumePath != ""; supervised {
		res, attempts, err = runSupervised(tr, inst, opts, *retries, *backoff, *checkpointPath, *resumePath, stderr)
	} else {
		res, err = tr.RunContext(context.Background(), inst, opts)
	}
	if err != nil {
		return fail(stderr, err)
	}
	if cacheMode == pt.CacheSubtrees && res.Stats.CacheMode != pt.CacheSubtrees {
		fmt.Fprintf(stderr, "ptxml: note: -cache subtree downgraded to %q (node/depth budgets and supervised runs disable subtree sharing; pass -max-nodes 0 -max-depth 0 without -retries/-checkpoint/-resume to enable it)\n",
			res.Stats.CacheMode)
	}

	// Stream straight from ξ: the writers skip registers/states and
	// splice virtual tags at emission, so no stripped/spliced copy of
	// the tree is ever materialized — and when ξ is a subtree-shared
	// DAG its unfolding goes to stdout without being built in memory.
	if *canonical {
		if err := res.Xi.WriteCanonicalVirtual(stdout, tr.Virtual); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintln(stdout)
	} else {
		if err := res.Xi.WriteXMLVirtual(stdout, tr.Virtual); err != nil {
			return fail(stderr, err)
		}
	}
	if *stats {
		s := res.Stats
		fmt.Fprintf(stderr, "class=%s nodes=%d depth=%d queries=%d stops=%d cache=%s hits=%d misses=%d evictions=%d shared=%d shared-nodes=%d attempts=%d elapsed=%v\n",
			tr.Classify(), s.Nodes, s.MaxDepth, s.QueriesRun, s.StopsApplied,
			s.CacheMode, s.CacheHits, s.CacheMisses, s.CacheEvictions,
			s.SubtreesShared, s.NodesShared, attempts, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// runDelta builds the document as a live view and replays deltas
// against it — from a +fact/-fact/commit script (one repair per
// commit-separated batch) or straight from a server's WAL (one repair
// per committed record). The printed document is the view's final
// state, which the incremental engine keeps byte-identical to a full
// rebuild of the mutated database.
func runDelta(tr *pt.Transducer, inst *relation.Instance, opts pt.Options, path, dbFilter string, canonical, stats bool, stdout, stderr io.Writer) int {
	deltas, code := loadDeltas(tr, path, dbFilter, stderr)
	if code != 0 {
		return code
	}
	start := time.Now()
	v, err := incr.NewView(context.Background(), tr, inst, incr.Options{Run: opts})
	if err != nil {
		return fail(stderr, err)
	}
	for i, d := range deltas {
		rep, err := v.Apply(context.Background(), d)
		if err != nil {
			return fail(stderr, err)
		}
		if stats {
			fmt.Fprintf(stderr, "delta %d: ops=%d effective=%d full-rebuild=%v dirty=%d fresh=%d dropped=%d queries=%d nodes=%d\n",
				i+1, d.Len(), rep.Effective, rep.FullRebuild, rep.Dirty, rep.Fresh, rep.Dropped, rep.QueriesRun, rep.Nodes)
		}
	}
	out, version, err := v.Snapshot(canonical)
	if err != nil {
		return fail(stderr, err)
	}
	if _, err := stdout.Write(out); err != nil {
		return fail(stderr, err)
	}
	if canonical {
		fmt.Fprintln(stdout)
	}
	if stats {
		s := v.Stats()
		fmt.Fprintf(stderr, "deltas=%d version=%d nodes=%d queries-total=%d elapsed=%v\n",
			len(deltas), version, s.Nodes, s.QueriesTotal, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// loadDeltas resolves the -delta argument: a WAL directory, a single
// WAL segment (sniffed by magic), or a delta script. WAL records are
// replayed in log order; schema-rejected deltas are skipped exactly
// like the server's own recovery replay (they belong to relations this
// spec does not publish), and -db narrows the replay to one database.
// The nonzero return is the exit code on failure.
func loadDeltas(tr *pt.Transducer, path, dbFilter string, stderr io.Writer) ([]*relation.Delta, int) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fail(stderr, err)
	}
	var recs []wal.Record
	if fi.IsDir() {
		var rep wal.RecoveryReport
		recs, rep, err = wal.ReadDir(path)
		if err != nil {
			return nil, fail(stderr, err)
		}
		if len(rep.Corruptions) > 0 {
			for _, c := range rep.Corruptions {
				fmt.Fprintln(stderr, "ptxml: corrupt WAL:", c)
			}
			return nil, 1
		}
	} else {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fail(stderr, err)
		}
		if !bytes.HasPrefix(data, []byte(wal.Magic)) {
			// Not a WAL segment: the original delta-script path.
			deltas, err := parser.ParseDeltaScript(string(data), tr.Schema)
			if err != nil {
				return nil, fail(stderr, err)
			}
			return deltas, 0
		}
		var cerr *wal.CorruptError
		recs, _, cerr = wal.DecodeSegment(filepath.Base(path), data)
		if cerr != nil {
			fmt.Fprintln(stderr, "ptxml: corrupt WAL:", cerr)
			return nil, 1
		}
	}
	deltas := make([]*relation.Delta, 0, len(recs))
	for _, rec := range recs {
		if dbFilter != "" && rec.DB != dbFilter {
			continue
		}
		if rec.Delta.Validate(tr.Schema) != nil {
			continue
		}
		deltas = append(deltas, rec.Delta)
	}
	return deltas, 0
}

// runSupervised routes the run through the supervision layer, loading
// and saving checkpoint files as requested.
func runSupervised(tr *pt.Transducer, inst *relation.Instance, opts pt.Options, retries int, backoff time.Duration, checkpointPath, resumePath string, stderr io.Writer) (*pt.Result, int, error) {
	sopts := supervise.Options{
		Run:        opts,
		Retries:    retries,
		Backoff:    supervise.Backoff{Base: backoff},
		Checkpoint: checkpointPath != "",
		OnRetry: func(attempt int, err error, next pt.Options) {
			fmt.Fprintf(stderr, "ptxml: attempt %d failed (%v); retrying\n", attempt, err)
		},
	}
	var res *pt.Result
	var rep *supervise.Report
	var err error
	if resumePath != "" {
		f, openErr := os.Open(resumePath)
		if openErr != nil {
			return nil, 1, openErr
		}
		snap, decErr := supervise.DecodeSnapshot(f)
		f.Close()
		if decErr != nil {
			return nil, 1, decErr
		}
		res, rep, err = supervise.Resume(context.Background(), tr, inst, snap, sopts)
	} else {
		res, rep, err = supervise.Run(context.Background(), tr, inst, sopts)
	}
	attempts := 1
	if rep != nil {
		attempts = rep.Attempts
	}
	if err != nil && checkpointPath != "" && rep != nil && rep.Snapshot != nil {
		if saveErr := saveCheckpoint(checkpointPath, rep.Snapshot); saveErr != nil {
			fmt.Fprintf(stderr, "ptxml: writing checkpoint: %v\n", saveErr)
		} else {
			fmt.Fprintf(stderr, "ptxml: checkpoint written to %s; resume with -resume %s\n", checkpointPath, checkpointPath)
		}
	}
	return res, attempts, err
}

func saveCheckpoint(path string, snap *supervise.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fail prints a typed, human-readable diagnosis and picks the exit
// code by error class.
func fail(stderr io.Writer, err error) int {
	var be *runctl.ErrBudget
	var ce *runctl.ErrCanceled
	var ie *runctl.ErrInternal
	switch {
	case errors.As(err, &be):
		fmt.Fprintf(stderr, "ptxml: aborted: %s budget exhausted (observed %d, limit %d); raise -max-nodes/-max-depth, add -retries (budgets are fresh per attempt), or fix the spec (relation-store transducers can produce doubly-exponential trees, Proposition 1)\n",
			be.Kind, be.Observed, be.Limit)
		return 4
	case errors.As(err, &ce):
		fmt.Fprintf(stderr, "ptxml: aborted: %v; raise -timeout, add -retries, or fix the spec\n", ce.Cause)
		return 5
	case errors.As(err, &ie):
		fmt.Fprintf(stderr, "ptxml: internal error in %s: %v\n", ie.Op, ie.Panic)
		return 1
	default:
		fmt.Fprintln(stderr, "ptxml:", err)
		return 1
	}
}
