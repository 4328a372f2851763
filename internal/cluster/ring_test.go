package cluster

import (
	"fmt"
	"testing"
)

func ringOf(nodes ...string) *Ring {
	r := NewRing(64)
	for _, n := range nodes {
		r.Add(n)
	}
	return r
}

// TestRingDeterminism: two independently built rings with the same
// membership route every key identically — coordinators never need to
// gossip routing tables.
func TestRingDeterminism(t *testing.T) {
	a := ringOf("n1", "n2", "n3")
	b := ringOf("n3", "n1", "n2") // insertion order must not matter
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("spec-%d\x00db-%d", i, i%7)
		pa, pb := a.Prefer(key, 3), b.Prefer(key, 3)
		if len(pa) != 3 || len(pb) != 3 {
			t.Fatalf("key %q: preference lists %v / %v, want length 3", key, pa, pb)
		}
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("key %q: rings disagree: %v vs %v", key, pa, pb)
			}
		}
	}
}

// TestRingBalance: with 64 vnodes each, a 3-node ring splits 3000 keys
// with no node owning less than half its fair share.
func TestRingBalance(t *testing.T) {
	r := ringOf("n1", "n2", "n3")
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	for _, n := range r.Members() {
		if counts[n] < keys/6 {
			t.Fatalf("node %s owns %d/%d keys — ring is badly unbalanced: %v", n, counts[n], keys, counts)
		}
	}
}

// TestRingSpreadsTrailingByteKeys: keys that differ only in their last
// byte — the mutate keys of databases reg0..reg5 — must not all route
// to one member of the default ring.
func TestRingSpreadsTrailingByteKeys(t *testing.T) {
	r := NewRing(0)
	for _, n := range []string{"node-0", "node-1", "node-2"} {
		r.Add(n)
	}
	owners := map[string]bool{}
	for i := 0; i < 6; i++ {
		owners[r.Owner(fmt.Sprintf("mutate\x00reg%d", i))] = true
	}
	if len(owners) < 2 {
		t.Fatalf("mutate keys of reg0..reg5 all route to %v", owners)
	}
}

// TestRingStability: removing one node moves ONLY the keys it owned;
// every other key keeps its owner. This is the property that makes
// failover cheap — a kill invalidates one node's cache locality, not
// the cluster's.
func TestRingStability(t *testing.T) {
	r := ringOf("n1", "n2", "n3")
	before := map[string]string{}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%d", i)
		before[k] = r.Owner(k)
	}
	r.Remove("n2")
	for k, owner := range before {
		got := r.Owner(k)
		if owner == "n2" {
			if got == "n2" || got == "" {
				t.Fatalf("key %q: removed node still owns it (got %q)", k, got)
			}
			continue
		}
		if got != owner {
			t.Fatalf("key %q: owner moved %q → %q though %q was not removed", k, owner, got, owner)
		}
	}
}

// TestRingPreference: the preference list is the failover order — the
// owner first, distinct successors after, and removing the owner
// promotes exactly the second entry.
func TestRingPreference(t *testing.T) {
	r := ringOf("n1", "n2", "n3", "n4")
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%d", i)
		p := r.Prefer(k, 4)
		if len(p) != 4 {
			t.Fatalf("key %q: preference %v, want all 4 members", k, p)
		}
		seen := map[string]bool{}
		for _, n := range p {
			if seen[n] {
				t.Fatalf("key %q: duplicate member in preference %v", k, p)
			}
			seen[n] = true
		}
		if p[0] != r.Owner(k) {
			t.Fatalf("key %q: Prefer[0]=%q but Owner=%q", k, p[0], r.Owner(k))
		}
	}
	k := "promote-me"
	p := r.Prefer(k, 2)
	r.Remove(p[0])
	if got := r.Owner(k); got != p[1] {
		t.Fatalf("after removing owner %q: new owner %q, want promoted successor %q", p[0], got, p[1])
	}
}

// TestRingEdges: empty ring and over-asking behave predictably.
func TestRingEdges(t *testing.T) {
	r := NewRing(0)
	if got := r.Prefer("k", 3); got != nil {
		t.Fatalf("empty ring Prefer = %v, want nil", got)
	}
	if r.Owner("k") != "" {
		t.Fatal("empty ring has an owner")
	}
	r.Add("solo")
	r.Add("solo") // idempotent
	if got := r.Prefer("k", 5); len(got) != 1 || got[0] != "solo" {
		t.Fatalf("Prefer over-ask = %v, want [solo]", got)
	}
	r.Remove("ghost") // unknown: no-op
	if m := r.Members(); len(m) != 1 {
		t.Fatalf("members = %v", m)
	}
}
