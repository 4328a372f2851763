package main

import (
	"bytes"
	"reflect"
	"testing"
)

// The generator is a pure function of the seed: the same seed gives the
// same bytes, another seed gives other bytes of the same shape.
func TestGenerateIsSeeded(t *testing.T) {
	a, again, other := generate(1), generate(1), generate(2)
	if !reflect.DeepEqual(a, again) {
		t.Fatal("generate(1) differs between two calls")
	}
	for name, db := range a.DBs {
		o := other.DBs[name]
		if db.Text == o.Text {
			t.Errorf("database %s: seeds 1 and 2 give the same text", name)
		}
		if !reflect.DeepEqual(db.Sizes, o.Sizes) {
			t.Errorf("database %s: sizes %v and %v differ between seeds", name, db.Sizes, o.Sizes)
		}
	}
	for _, name := range []string{"tau1", "tau3"} {
		if a.Specs[name] == other.Specs[name] {
			t.Errorf("spec %s: seeds 1 and 2 give the same text", name)
		}
	}
}

// Every generated (spec, database) pair the workloads publish parses and
// runs under the reference, and a toggle flip changes τ1's output, so the
// golden check can tell the states of a mutated database apart.
func TestGoldensSeeState(t *testing.T) {
	in := generate(3)
	g := newGoldens(in)
	for _, w := range workloads {
		if err := g.all(w); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
	}
	base, err := g.get("tau1", "reg0-db", 0)
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for slot := range in.DBs["reg0-db"].Toggles {
		flipped, err := g.get("tau1", "reg0-db", 1<<slot)
		if err != nil {
			t.Fatal(err)
		}
		changed = changed || !bytes.Equal(base.body, flipped.body)
	}
	if !changed {
		t.Error("no toggle of reg0 changes tau1's output")
	}
}
