package eval

import (
	"testing"

	"ptx/internal/logic"
	"ptx/internal/relation"
)

// A memo bound to its instance must never serve a hit computed before a
// mutation: Instance.Apply bumps the version, and the next Get flushes.
func TestMemoStaleHitAfterInsertImpossible(t *testing.T) {
	inst := graphInstance([2]string{"a", "b"})
	q := logic.MustQuery(nil, []logic.Var{x, y}, logic.R("E", x, y))

	reg := relation.New(0)
	m := NewMemo(0)
	m.BindInstance(inst)

	if r1 := evalMemo(t, q, NewEnv(inst), reg, m); r1.Len() != 1 {
		t.Fatalf("pre-delta result has %d tuples, want 1", r1.Len())
	}
	evalMemo(t, q, NewEnv(inst), reg, m)
	if hits, _, _ := m.Stats(); hits != 1 {
		t.Fatalf("warm-up: hits = %d, want 1", hits)
	}

	eff, err := inst.Apply((&relation.Delta{}).Insert("E", "b", "c"))
	if err != nil || eff.Empty() {
		t.Fatalf("Apply: eff=%v err=%v", eff, err)
	}

	// Fresh Env (the Env caches the active domain); the memo must MISS
	// and recompute against the mutated instance.
	if r2 := evalMemo(t, q, NewEnv(inst), reg, m); r2.Len() != 2 {
		t.Fatalf("post-delta result has %d tuples, want 2 — stale memo hit", r2.Len())
	}
	if hits, _, _ := m.Stats(); hits != 1 {
		t.Fatalf("post-delta evaluation hit the stale table (hits = %d)", hits)
	}
	if entries, flushes := m.InvalidationStats(); entries == 0 || flushes != 1 {
		t.Fatalf("invalidation stats = %d entries/%d flushes, want >0/1", entries, flushes)
	}
}

// A Put computed before a mutation but landing after it must be dropped,
// not stored under the new version.
func TestMemoDropsRacingPut(t *testing.T) {
	inst := graphInstance([2]string{"a", "b"})
	q := logic.MustQuery(nil, []logic.Var{x, y}, logic.R("E", x, y))

	m := NewMemo(0)
	m.BindInstance(inst)

	stale, err := EvalQuery(q, NewEnv(inst))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Apply((&relation.Delta{}).Insert("E", "b", "c")); err != nil {
		t.Fatal(err)
	}
	reg := relation.New(0)
	m.Put(q, reg, stale) // simulates an in-flight run finishing post-delta
	if rel, ok := m.Get(q, reg); ok && rel.Len() != 2 {
		t.Fatalf("stale racing Put was served: %v", rel)
	}
}

// Selective invalidation drops exactly the entries of the named
// queries (the ones that read a mutated relation, which pt's table
// names; see pt.Transducer.Readers); re-binding afterwards keeps the
// survivors live.
func TestMemoInvalidateRelationsSelective(t *testing.T) {
	inst := graphInstance([2]string{"a", "b"})
	inst.Schema().MustDeclare("A", 1)
	inst.SetRel("A", relation.New(1))
	inst.Add("A", "a")

	qe := logic.MustQuery(nil, []logic.Var{x, y}, logic.R("E", x, y))
	qa := logic.MustQuery(nil, []logic.Var{x}, logic.R("A", x))

	reg := relation.New(0)
	m := NewMemo(0)
	m.BindInstance(inst)
	evalMemo(t, qe, NewEnv(inst), reg, m)
	evalMemo(t, qa, NewEnv(inst), reg, m)

	if _, err := inst.Apply((&relation.Delta{}).Insert("E", "b", "c")); err != nil {
		t.Fatal(err)
	}
	if n := m.InvalidateQueries([]*logic.Query{qe}); n != 1 {
		t.Fatalf("invalidated %d entries, want exactly the E query", n)
	}
	m.BindInstance(inst) // reconcile: survivors stay valid

	evalMemo(t, qa, NewEnv(inst), reg, m)
	hits, misses, _ := m.Stats()
	if hits != 1 {
		t.Fatalf("A-query should survive invalidation (hits=%d misses=%d)", hits, misses)
	}
	if r := evalMemo(t, qe, NewEnv(inst), reg, m); r.Len() != 2 {
		t.Fatalf("E-query result has %d tuples after invalidation, want 2", r.Len())
	}
}

// A query that ranges over the active domain reads every relation: ¬A(x)
// names only A, yet an insert into E adds c to the domain and so to its
// answer. pt lists it among E's readers (TestReadersDomainQuery); once
// named, its entry is dropped and recomputed after the re-bind, while
// the A query, which E's delta cannot change, keeps its entry.
func TestMemoInvalidateDomainReader(t *testing.T) {
	inst := graphInstance([2]string{"a", "b"})
	inst.Schema().MustDeclare("A", 1)
	inst.SetRel("A", relation.New(1))
	inst.Add("A", "a")

	qn := logic.MustQuery(nil, []logic.Var{x}, &logic.Not{F: logic.R("A", x)})
	qa := logic.MustQuery(nil, []logic.Var{x}, logic.R("A", x))
	reg := relation.New(0)
	m := NewMemo(0)
	m.BindInstance(inst)
	if r := evalMemo(t, qn, NewEnv(inst), reg, m); r.Len() != 1 {
		t.Fatalf("pre-delta: %v; want {b}", r)
	}
	evalMemo(t, qa, NewEnv(inst), reg, m)
	if _, err := inst.Apply((&relation.Delta{}).Insert("E", "b", "c")); err != nil {
		t.Fatal(err)
	}
	if n := m.InvalidateQueries([]*logic.Query{qn}); n != 1 {
		t.Fatalf("invalidated %d entries, want the domain reader", n)
	}
	m.BindInstance(inst)
	if r := evalMemo(t, qn, NewEnv(inst), reg, m); r.Len() != 2 {
		t.Fatalf("post-delta: %v; want {b, c}", r)
	}
	if _, ok := m.Get(qa, reg); !ok {
		t.Fatal("the A query's entry did not survive")
	}
}

// Invalidation matches a key's whole query identity: dropping one query
// keeps every entry of the others, under the same registers.
func TestMemoInvalidateWholeIDs(t *testing.T) {
	m := NewMemo(0)
	regs := []*relation.Relation{relation.New(0), relation.FromRows([]string{"r1"}), relation.FromRows([]string{"r2"})}
	qs := make([]*logic.Query, 11)
	for i := range qs {
		rel := "B"
		if i == 0 {
			rel = "A"
		}
		qs[i] = logic.MustQuery(nil, []logic.Var{x}, logic.R(rel, x))
		for _, reg := range regs {
			m.Put(qs[i], reg, relation.New(1))
		}
	}
	if n := m.InvalidateQueries(qs[:1]); n != 3 {
		t.Fatalf("invalidated %d entries, want the 3 of query 0", n)
	}
	for _, reg := range regs {
		if _, ok := m.Get(qs[0], reg); ok {
			t.Errorf("query 0 entry %v survived", reg)
		}
		for _, q := range qs[1:] {
			if _, ok := m.Get(q, reg); !ok {
				t.Errorf("entry %v of %s was dropped", reg, q)
			}
		}
	}
}
