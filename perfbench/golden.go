package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"

	"ptx/internal/parser"
	"ptx/internal/pt"
	"ptx/internal/relation"
)

// The independent reference. Goldens come from pt.Run with compiled
// plans off (NoPlan) and every cache off, on an instance parsed from the
// generated text with every acked toggle applied directly — none of the
// registry, memo, WAL, live-view or cluster code that the measured path
// runs is involved.

// golden is one expected response plus the reference run's counts.
type golden struct {
	body    []byte
	nodes   int // logical output nodes (Stats.Nodes)
	queries int // rule queries of a full uncached run (Stats.QueriesRun)
}

// refOptions are the reference run's options: no plans, no caches, the
// same node budget every measured path uses.
var refOptions = pt.Options{NoPlan: true, Cache: pt.CacheOff, MaxNodes: maxNodes}

// goldens memoizes reference outputs by (spec, db, toggle mask).
type goldens struct {
	in  *Inputs
	mu  sync.Mutex
	m   map[string]*golden
	rel map[string]string // relation outputs by (spec, db, label)
}

func newGoldens(in *Inputs) *goldens {
	return &goldens{in: in, m: map[string]*golden{}, rel: map[string]string{}}
}

// instanceAt parses db's text against tr's schema and flips the toggles
// set in mask.
func instanceAt(tr *pt.Transducer, db *DBInput, mask uint) (*relation.Instance, error) {
	inst, err := parser.ParseInstance(db.Text, tr.Schema)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", db.Name, err)
	}
	for j, t := range db.Toggles {
		if mask&(1<<j) != 0 {
			if _, err := inst.Apply(toggleDelta(t, false)); err != nil {
				return nil, err
			}
		}
	}
	return inst, nil
}

// toggleDelta is Toggle.ops as a relation.Delta.
func toggleDelta(t Toggle, on bool) *relation.Delta {
	d := &relation.Delta{}
	for _, op := range t.ops(on) {
		if op.Op == "delete" {
			d.Delete(op.Rel, op.Tuple...)
		} else {
			d.Insert(op.Rel, op.Tuple...)
		}
	}
	return d
}

func (g *goldens) get(spec, db string, mask uint) (*golden, error) {
	key := fmt.Sprintf("%s\x00%s\x00%d", spec, db, mask)
	g.mu.Lock()
	defer g.mu.Unlock()
	if gd, ok := g.m[key]; ok {
		return gd, nil
	}
	tr, err := parser.ParseTransducer(g.in.Specs[spec])
	if err != nil {
		return nil, err
	}
	inst, err := instanceAt(tr, g.in.DBs[db], mask)
	if err != nil {
		return nil, err
	}
	res, err := tr.Run(inst, refOptions)
	if err != nil {
		return nil, fmt.Errorf("reference %s/%s: %w", spec, db, err)
	}
	var buf bytes.Buffer
	if err := res.Xi.WriteXMLVirtual(&buf, tr.Virtual); err != nil {
		return nil, err
	}
	gd := &golden{body: buf.Bytes(), nodes: res.Stats.Nodes, queries: res.Stats.QueriesRun}
	g.m[key] = gd
	return gd, nil
}

// all precomputes every golden w checks — for a mutated database, every
// toggle state — so no reference run lands inside a timed set-up or a
// measured pass.
func (g *goldens) all(w *workload) error {
	if w.name == "library" {
		for _, k := range libraryKinds {
			var err error
			if k.label == "" {
				_, err = g.get(k.spec, k.db, 0)
			} else {
				_, err = g.relation(k.spec, k.db, k.label)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	for _, db := range w.dbs {
		for mask := uint(0); mask < 1<<len(g.in.DBs[db].Toggles); mask++ {
			for _, spec := range w.specs {
				if !compatible(spec, db) {
					continue
				}
				if _, err := g.get(spec, db, mask); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// relation is the reference relation output on label, rendered
// sorted.
func (g *goldens) relation(spec, db, label string) (string, error) {
	key := spec + "\x00" + db + "\x00" + label
	g.mu.Lock()
	defer g.mu.Unlock()
	if r, ok := g.rel[key]; ok {
		return r, nil
	}
	tr, err := parser.ParseTransducer(g.in.Specs[spec])
	if err != nil {
		return "", err
	}
	inst, err := instanceAt(tr, g.in.DBs[db], 0)
	if err != nil {
		return "", err
	}
	rel, err := tr.OutputRelation(inst, label, refOptions)
	if err != nil {
		return "", err
	}
	g.rel[key] = relationText(rel)
	return g.rel[key], nil
}

func relationText(r *relation.Relation) string {
	var rows []string
	for _, t := range r.Sorted() {
		rows = append(rows, t.String())
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}
