package relation

import (
	"strings"
	"sync"
	"testing"

	"ptx/internal/value"
)

func deltaSchema() *Schema {
	return NewSchema().MustDeclare("e", 2).MustDeclare("a", 1)
}

func TestDeltaBuildersAndString(t *testing.T) {
	d := (&Delta{}).Insert("e", "1", "2").Delete("a", "x")
	if d.Len() != 2 || d.Empty() {
		t.Fatalf("Len=%d Empty=%v, want 2/false", d.Len(), d.Empty())
	}
	if got := d.String(); got != "+e(1,2) -a(x)" {
		t.Fatalf("String() = %q", got)
	}
	if got := d.Rels(); len(got) != 2 || got[0] != "a" || got[1] != "e" {
		t.Fatalf("Rels() = %v", got)
	}
	var empty *Delta
	if !empty.Empty() || empty.Len() != 0 || empty.Rels() != nil {
		t.Fatalf("nil delta should be empty")
	}
}

func TestDeltaValidate(t *testing.T) {
	s := deltaSchema()
	if err := (&Delta{}).Insert("e", "1", "2").Validate(s); err != nil {
		t.Fatalf("valid delta rejected: %v", err)
	}
	if err := (&Delta{}).Insert("nope", "1").Validate(s); err == nil || !strings.Contains(err.Error(), "not in schema") {
		t.Fatalf("unknown relation not rejected: %v", err)
	}
	if err := (&Delta{}).Insert("e", "1").Validate(s); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("arity mismatch not rejected: %v", err)
	}
}

func TestInstanceApplyEffectiveDelta(t *testing.T) {
	inst := NewInstance(deltaSchema())
	inst.Add("e", "1", "2")
	v0 := inst.Version()

	// Insert a present tuple + delete an absent one: fully ineffective.
	eff, err := inst.Apply((&Delta{}).Insert("e", "1", "2").Delete("a", "x"))
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !eff.Empty() {
		t.Fatalf("effective delta = %v, want empty", eff)
	}
	if inst.Version() != v0 {
		t.Fatalf("ineffective delta bumped version %d -> %d", v0, inst.Version())
	}

	// Mixed: one effective insert, one ineffective, one effective delete.
	eff, err = inst.Apply((&Delta{}).Insert("a", "x").Insert("e", "1", "2").Delete("e", "1", "2"))
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if eff.Len() != 2 || eff.String() != "+a(x) -e(1,2)" {
		t.Fatalf("effective delta = %v", eff)
	}
	if inst.Version() != v0+1 {
		t.Fatalf("version = %d, want %d", inst.Version(), v0+1)
	}
	if inst.Rel("e").Len() != 0 || inst.Rel("a").Len() != 1 {
		t.Fatalf("post state wrong: %s", inst)
	}

	// Validation failure applies nothing.
	before := inst.String()
	if _, err := inst.Apply((&Delta{}).Insert("a", "y").Insert("zzz", "1")); err == nil {
		t.Fatal("invalid delta accepted")
	}
	if inst.String() != before || inst.Version() != v0+1 {
		t.Fatal("failed Apply mutated the instance")
	}
}

// The fingerprint cache must be dropped by the new mutators: a Key()
// computed before an Insert/Delete must not be served afterwards.
func TestMutatorsInvalidateFingerprint(t *testing.T) {
	r := New(2)
	r.Add(value.Tuple{"1", "2"})
	k1 := r.Key()
	if !r.Insert(value.Tuple{"3", "4"}) {
		t.Fatal("Insert of fresh tuple reported no change")
	}
	k2 := r.Key()
	if k1 == k2 {
		t.Fatal("Key unchanged after Insert: stale fingerprint served")
	}
	if r.Insert(value.Tuple{"3", "4"}) {
		t.Fatal("Insert of present tuple reported a change")
	}
	if r.Key() != k2 {
		t.Fatal("no-op Insert changed Key")
	}
	if !r.Delete(value.Tuple{"3", "4"}) {
		t.Fatal("Delete of present tuple reported no change")
	}
	if r.Key() != k1 {
		t.Fatal("Key after Delete should match the pre-Insert fingerprint")
	}
	if r.Delete(value.Tuple{"3", "4"}) {
		t.Fatal("Delete of absent tuple reported a change")
	}
}

func TestCloneCarriesVersion(t *testing.T) {
	inst := NewInstance(deltaSchema())
	inst.Add("a", "x")
	c := inst.Clone()
	if c.Version() != inst.Version() {
		t.Fatalf("clone version %d != %d", c.Version(), inst.Version())
	}
	// Mutating the clone must not affect the original.
	if _, err := c.Apply((&Delta{}).Insert("a", "y")); err != nil {
		t.Fatal(err)
	}
	if inst.Rel("a").Len() != 1 || c.Rel("a").Len() != 2 {
		t.Fatal("clone shares storage with original")
	}
	if c.Version() == inst.Version() {
		t.Fatal("clone mutation bumped (or failed to bump past) original version")
	}
}

// deriveBase is a three-relation instance for the Derive tests; the
// delta below touches e and a and leaves f alone.
func deriveBase() *Instance {
	inst := NewInstance(NewSchema().MustDeclare("e", 2).MustDeclare("a", 1).MustDeclare("f", 1))
	inst.Add("e", "1", "2")
	inst.Add("e", "2", "3")
	inst.Add("a", "x")
	inst.Add("f", "k")
	return inst
}

func deriveDelta() *Delta {
	return (&Delta{}).Insert("e", "3", "4").Delete("a", "x").Insert("e", "1", "2")
}

// TestDerive: Derive leaves its receiver unchanged, shares every
// untouched relation by pointer, and agrees with Clone()+Apply on both
// the new instance and the effective delta. A validation error returns
// nil and leaves the receiver intact.
func TestDerive(t *testing.T) {
	base := deriveBase()
	before, v0 := base.String(), base.Version()
	next, eff, err := base.Derive(deriveDelta())
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	if base.String() != before || base.Version() != v0 {
		t.Fatal("Derive mutated its receiver")
	}
	if next.Rel("f") != base.Rel("f") {
		t.Fatal("untouched relation f is not shared by pointer")
	}
	if next.Rel("e") == base.Rel("e") || next.Rel("a") == base.Rel("a") {
		t.Fatal("touched relations must be cloned, not shared")
	}
	want := base.Clone()
	wantEff, err := want.Apply(deriveDelta())
	if err != nil {
		t.Fatal(err)
	}
	if !next.Equal(want) || next.Version() != want.Version() {
		t.Fatalf("Derive = %s (v%d), Clone()+Apply = %s (v%d)", next, next.Version(), want, want.Version())
	}
	if eff.String() != wantEff.String() || eff.String() != "+e(3,4) -a(x)" {
		t.Fatalf("effective delta %v, Clone()+Apply says %v", eff, wantEff)
	}

	bad, beff, err := base.Derive((&Delta{}).Insert("a", "y").Insert("zzz", "1"))
	if err == nil || bad != nil || beff != nil {
		t.Fatalf("invalid delta: got (%v, %v, %v), want (nil, nil, error)", bad, beff, err)
	}
	if base.String() != before || base.Version() != v0 {
		t.Fatal("failed Derive mutated its receiver")
	}
}

// TestDeriveConcurrentReaders: readers of version n keep running while
// version n+1 is derived from it (run under -race in CI), and they read
// version n throughout.
func TestDeriveConcurrentReaders(t *testing.T) {
	base := deriveBase()
	want := base.String()
	probe := value.Tuple{"1", "2"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				e := base.Rel("e")
				if !e.Contains(probe) || e.Len() != 2 || len(e.Lookup(0, "2")) != 1 || base.Rel("a").Key() == "" {
					panic("version n changed under a concurrent Derive")
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if _, _, err := base.Derive(deriveDelta()); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if base.String() != want {
		t.Fatal("Derive mutated version n")
	}
}
