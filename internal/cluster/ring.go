// Package cluster is the multi-node tier over the serve package: a
// coordinator consistent-hash routes publish requests across worker
// nodes, health-probes them, fails over to ring successors when a node
// dies, and hands in-flight supervised runs to their new owner through
// the shared checkpoint store (see serve.Config.Store), with ownership
// epochs fencing out zombie writers. The design target is the same as
// the single-node server's: every request ends in golden bytes or a
// typed JSON error — a node kill mid-run costs a resume, never a
// corrupt or silently-restarted answer.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring with virtual nodes. Each member owns
// VNodes points on a 64-bit circle; a key routes to the first point at
// or after its own hash, and the PREFERENCE LIST for a key is the
// sequence of distinct members encountered walking clockwise from
// there — the failover order. Adding or removing one member moves only
// the keys that hashed to its points, so a node kill does not reshuffle
// the whole cluster's cache and checkpoint locality.
//
// Ring is not goroutine-safe; the Coordinator serializes access.
type Ring struct {
	vnodes int
	points []point // sorted by hash
	member map[string]bool
}

type point struct {
	hash uint64
	node string
}

// NewRing builds an empty ring with vnodes points per member
// (default 64 when vnodes <= 0 — enough that a 3-node ring splits keys
// within a few percent of evenly).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	return &Ring{vnodes: vnodes, member: make(map[string]bool)}
}

// Add inserts a member; adding an existing member is a no-op.
func (r *Ring) Add(node string) {
	if r.member[node] {
		return
	}
	r.member[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, point{hash64(fmt.Sprintf("%s#%d", node, i)), node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member and its points; unknown members are a no-op.
func (r *Ring) Remove(node string) {
	if !r.member[node] {
		return
	}
	delete(r.member, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Members returns the member names in sorted order.
func (r *Ring) Members() []string {
	out := make([]string, 0, len(r.member))
	for m := range r.member {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Prefer returns the preference list for key: up to n distinct members
// in clockwise order starting at key's ring position. The first entry
// is the key's owner; the rest are its failover successors.
func (r *Ring) Prefer(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.member) {
		n = len(r.member)
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// Owner returns the key's primary owner, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	p := r.Prefer(key, 1)
	if len(p) == 0 {
		return ""
	}
	return p[0]
}

// hash64 places a string on the ring: FNV-1a followed by murmur3's
// 64-bit finalizer. Bare FNV-1a mixes the last bytes of its input into
// the low bits only, so keys differing in one trailing byte (db names
// "reg0".."reg5") land next to each other on the circle and mostly on
// one member; the finalizer spreads every input bit over the whole
// word.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return fmix64(h.Sum64())
}

func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}
