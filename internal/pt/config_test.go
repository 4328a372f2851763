package pt

import (
	"context"
	"testing"

	"ptx/internal/logic"
	"ptx/internal/relation"
)

// TestAncestorSetExactUnderCollisions: configurations forced onto one
// hash, differing in register, state or tag, are told apart by
// contains, and popping restores the set to what it was before each
// push. A collision must never fire the stop condition wrongly.
func TestAncestorSetExactUnderCollisions(t *testing.T) {
	const h = 42
	regA, regB := relation.FromRows([]string{"a"}), relation.FromRows([]string{"b"})
	sealedA := relation.FromRows([]string{"a"}).GroupByPrefix(0)[0]
	cfgs := []Config{
		{State: "q", Tag: "t", Reg: regA, h: h},
		{State: "q", Tag: "t", Reg: regB, h: h},            // other register
		{State: "p", Tag: "t", Reg: regA, h: h},            // other state
		{State: "q", Tag: "u", Reg: regA, h: h},            // other tag
		{State: "q", Tag: "t", Reg: relation.New(1), h: h}, // empty register
	}
	s := newConfigSet()
	for i, c := range cfgs {
		for j, o := range cfgs {
			if got := s.contains(o); got != (j < i) {
				t.Fatalf("after %d pushes: contains(cfgs[%d]) = %v", i, j, got)
			}
		}
		s.push(c)
	}
	// An equal register in another form is the same configuration.
	if !s.contains(Config{State: "q", Tag: "t", Reg: sealedA, h: h}) {
		t.Fatal("an equal sealed register was not recognized")
	}
	// A configuration whose hash differs is absent whatever its fields.
	if s.contains(Config{State: "q", Tag: "t", Reg: regA, h: h + 1}) {
		t.Fatal("a configuration with another hash was found")
	}
	for i := len(cfgs) - 1; i >= 0; i-- {
		s.pop()
		for j, o := range cfgs {
			if got := s.contains(o); got != (j < i) {
				t.Fatalf("after popping to %d: contains(cfgs[%d]) = %v", i, j, got)
			}
		}
	}
	if len(s.top) != 0 || len(s.path) != 0 || len(s.prev) != 0 {
		t.Fatalf("emptied set keeps %d hashes, %d entries", len(s.top), len(s.path))
	}

	// Interleaved hashes: popping one chain leaves the other intact.
	s.push(cfgs[0])
	other := Config{State: "q", Tag: "t", Reg: regB, h: h + 1}
	s.push(other)
	s.push(cfgs[2])
	s.pop()
	if !s.contains(cfgs[0]) || !s.contains(other) || s.contains(cfgs[2]) || s.top[h] != 0 {
		t.Fatal("popping restored the wrong chain")
	}
}

// TestNewConfigIdentity: NewConfig hashes equal configurations equally
// across register forms and separates state, tag and register.
func TestNewConfigIdentity(t *testing.T) {
	reg := relation.FromRows([]string{"a"}, []string{"b"})
	sealed := relation.FromRows([]string{"a"}, []string{"b"}).GroupByPrefix(0)[0]
	c := NewConfig("q", "t", reg)
	if d := NewConfig("q", "t", sealed); d.h != c.h || !d.same(c) {
		t.Fatal("equal configurations differ")
	}
	for _, d := range []Config{
		NewConfig("t", "q", reg), // state and tag swapped
		NewConfig("q", "t", relation.FromRows([]string{"a"})),
		NewConfig("q", "u", reg),
	} {
		if d.same(c) || d.h == c.h {
			t.Fatalf("(%s,%s,%v) matches (q,t,%v)", d.State, d.Tag, d.Reg, reg)
		}
	}
}

// TestSpecBufferNotRetained: the driver's expander reuses its spec
// buffer, so a second expansion overwrites the specs of the first. The
// first node's children, copied out of the buffer, stay as they were.
func TestSpecBufferNotRetained(t *testing.T) {
	tr := New("two-level", unarySchema(), "q0", "r")
	tr.DeclareTag("a", 1)
	tr.DeclareTag("b", 1)
	tr.AddRule("q0", "r", Item("q1", "a", logic.MustQuery([]logic.Var{x}, nil, logic.R("R1", x))))
	tr.AddRule("q1", "a", Item("q2", "b", logic.MustQuery([]logic.Var{x}, nil, logic.R(RegRel, x))))
	inst := relation.NewInstance(unarySchema())
	inst.Add("R1", "u")
	inst.Add("R1", "v")
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	r := tr.newRun(context.Background(), inst, Options{})
	defer r.cancel()
	root, d := r.start()
	for range 2 { // the root, then its first child
		if err := d.step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(root.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(root.Children))
	}
	for i, want := range []string{"u", "v"} {
		c := root.Children[i]
		if c.Tag != "a" || !c.Reg.Equal(relation.FromRows([]string{want})) {
			t.Fatalf("root child %d is (%s,%v) after the next expansion, want (a,{(%s)})", i, c.Tag, c.Reg, want)
		}
	}
	if c := root.Children[1]; c.State != "q1" || c.Children != nil {
		t.Fatalf("unexpanded child is (%s, %d children), want (q1, none)", c.State, len(c.Children))
	}
	first := root.Children[0]
	if len(first.Children) != 1 || first.Children[0].Tag != "b" {
		t.Fatalf("first child expanded to %d children, want one b", len(first.Children))
	}
}
