package eval

import (
	"slices"
	"testing"

	"ptx/internal/logic"
	"ptx/internal/relation"
	"ptx/internal/value"
)

// evalMemo follows the memo protocol of pt's Expander: a hit is
// returned as stored, and a miss evaluates q with reg bound as Reg and
// stores the result.
func evalMemo(t *testing.T, q *logic.Query, env *Env, reg *relation.Relation, m *Memo) *relation.Relation {
	t.Helper()
	if rel, ok := m.Get(q, reg); ok {
		return rel
	}
	rel, err := EvalQuery(q, env.WithRelation("Reg", reg))
	if err != nil {
		t.Fatal(err)
	}
	m.Put(q, reg, rel)
	return rel
}

func TestMemoHitMissEvict(t *testing.T) {
	inst := graphInstance([2]string{"a", "b"}, [2]string{"b", "c"})
	env := NewEnv(inst)
	reg := relation.New(0)
	q1 := logic.MustQuery(nil, []logic.Var{x, y}, logic.R("E", x, y))
	q2 := logic.MustQuery(nil, []logic.Var{x}, logic.Ex([]logic.Var{y}, logic.R("E", x, y)))

	m := NewMemo(1) // capacity 1 forces eviction between q1 and q2
	r1a := evalMemo(t, q1, env, reg, m)
	evalMemo(t, q2, env, reg, m)
	// q1 was evicted by q2; re-evaluating is a miss that re-stores.
	r1b := evalMemo(t, q1, env, reg, m)
	if !r1a.Equal(r1b) {
		t.Fatal("re-evaluated result differs")
	}
	hits, misses, evictions := m.Stats()
	if hits != 0 || misses != 3 || evictions != 2 {
		t.Errorf("stats = %d/%d/%d, want 0 hits, 3 misses, 2 evictions", hits, misses, evictions)
	}

	// With room for both, the second round is all hits — and returns the
	// identical relation by reference.
	m = NewMemo(0)
	first := evalMemo(t, q1, env, reg, m)
	if second := evalMemo(t, q1, env, reg, m); first != second {
		t.Error("hit should return the cached relation by reference")
	}
	if hits, misses, _ := m.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d, want 1 hit, 1 miss", hits, misses)
	}
}

// TestMemoDistinguishesRegisters: the memo must separate registers
// whose contents differ, and identify ones whose contents are Equal
// regardless of object identity and insertion order.
func TestMemoDistinguishesRegisters(t *testing.T) {
	inst := graphInstance([2]string{"a", "b"}, [2]string{"b", "c"})
	env := NewEnv(inst)
	q := logic.MustQuery(nil, []logic.Var{x},
		logic.Ex([]logic.Var{y}, logic.Conj(logic.R("Reg", y), logic.R("E", y, x))))

	regA := relation.FromRows([]string{"a"}, []string{"c"})
	regB := relation.FromRows([]string{"b"})
	m := NewMemo(0)

	ra := evalMemo(t, q, env, regA, m)
	rb := evalMemo(t, q, env, regB, m)
	if ra.Equal(rb) {
		t.Fatal("different registers must not collide in the memo")
	}
	if hits, misses, _ := m.Stats(); hits != 0 || misses != 2 {
		t.Errorf("stats = %d/%d, want 0 hits, 2 misses", hits, misses)
	}

	// Same register contents in another object, built in the other
	// insertion order: a hit on the stored result.
	regA2 := relation.FromRows([]string{"c"}, []string{"a"})
	if got := evalMemo(t, q, env, regA2, m); got != ra {
		t.Error("equal register contents must hit regardless of relation identity")
	}
	if hits, _, _ := m.Stats(); hits != 1 {
		t.Errorf("hits = %d, want 1", hits)
	}
}

// TestMemoHashCollision: an entry filed under the probe's (query,
// hash) but computed for a different register is a miss, and Put
// replaces it.
func TestMemoHashCollision(t *testing.T) {
	q := logic.MustQuery(nil, []logic.Var{x}, logic.R("Reg", x))
	probe := relation.FromRows([]string{"a"})
	other := relation.FromRows([]string{"b"})
	m := NewMemo(0)
	m.lru.Put(memoKey{q, probe.Hash()}, memoEntry{reg: other, rel: other})

	if rel, ok := m.Get(q, probe); ok {
		t.Fatalf("colliding entry served as a hit: %v", rel)
	}
	want := relation.FromRows([]string{"a"})
	m.Put(q, probe, want)
	if n := m.lru.Len(); n != 1 {
		t.Fatalf("%d entries after Put, want the colliding one replaced", n)
	}
	if got, ok := m.Get(q, probe); !ok || got != want {
		t.Fatalf("Get after Put = %v, %v; want the stored result", got, ok)
	}
	if hits, misses, _ := m.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d, want 1 hit, 1 miss", hits, misses)
	}
}

// TestMemoHitAllocs: a hit on a sealed register allocates nothing,
// whether the probe is the stored register object or an equal copy.
func TestMemoHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rows := make([]value.Tuple, 50)
	for i := range rows {
		rows[i] = value.Tuple{value.Of(i), value.V("v")}
	}
	reg, same := relation.Build(2, rows), relation.Build(2, slices.Clone(rows))
	q := logic.MustQuery(nil, []logic.Var{x, y}, logic.R("Reg", x, y))
	m := NewMemo(0)
	m.Put(q, reg, reg)
	for _, probe := range []*relation.Relation{reg, same} {
		if allocs := testing.AllocsPerRun(100, func() {
			if _, ok := m.Get(q, probe); !ok {
				t.Fatal("miss on a stored register")
			}
		}); allocs != 0 {
			t.Errorf("%.0f allocations per hit, want 0", allocs)
		}
	}
}
