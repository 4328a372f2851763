package pt

import (
	"fmt"
	"sort"
)

// GraphNode identifies a node v(q,a) of the dependency graph Gτ.
type GraphNode struct {
	State string
	Tag   string
}

func (n GraphNode) String() string { return fmt.Sprintf("v(%s,%s)", n.State, n.Tag) }

// Graph is the dependency graph Gτ of a transducer: one node per
// (state, tag) pair occurring in the rules, with an edge v(q,a)→v(q',a')
// whenever (q',a') appears on the right-hand side of the rule for (q,a).
type Graph struct {
	Root  GraphNode
	nodes []GraphNode
	// edges[from] lists targets in the order they appear in the rule;
	// edgeIdx[from][i] is the rule-item index of the i-th edge.
	edges   map[GraphNode][]GraphNode
	edgeIdx map[GraphNode][]int
}

// DependencyGraph builds Gτ.
func (t *Transducer) DependencyGraph() *Graph {
	g := &Graph{
		Root:    GraphNode{State: t.Start, Tag: t.RootTag},
		edges:   make(map[GraphNode][]GraphNode),
		edgeIdx: make(map[GraphNode][]int),
	}
	seen := make(map[GraphNode]bool)
	addNode := func(n GraphNode) {
		if !seen[n] {
			seen[n] = true
			g.nodes = append(g.nodes, n)
		}
	}
	addNode(g.Root)
	for _, r := range t.Rules() {
		from := GraphNode{State: r.State, Tag: r.Tag}
		addNode(from)
		for i, it := range r.Items {
			to := GraphNode{State: it.State, Tag: it.Tag}
			addNode(to)
			g.edges[from] = append(g.edges[from], to)
			g.edgeIdx[from] = append(g.edgeIdx[from], i)
		}
	}
	sort.Slice(g.nodes, func(i, j int) bool {
		if g.nodes[i].State != g.nodes[j].State {
			return g.nodes[i].State < g.nodes[j].State
		}
		return g.nodes[i].Tag < g.nodes[j].Tag
	})
	return g
}

// Nodes returns all graph nodes in sorted order.
func (g *Graph) Nodes() []GraphNode {
	out := make([]GraphNode, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// HasCycle reports whether Gτ contains a cycle, i.e. whether the
// transducer is recursive.
func (g *Graph) HasCycle() bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[GraphNode]int, len(g.nodes))
	var visit func(n GraphNode) bool
	visit = func(n GraphNode) bool {
		color[n] = gray
		for _, m := range g.edges[n] {
			switch color[m] {
			case gray:
				return true
			case white:
				if visit(m) {
					return true
				}
			}
		}
		color[n] = black
		return false
	}
	for _, n := range g.nodes {
		if color[n] == white && visit(n) {
			return true
		}
	}
	return false
}

// Reachable returns the set of nodes reachable from the root.
func (g *Graph) Reachable() map[GraphNode]bool {
	seen := make(map[GraphNode]bool)
	stack := []GraphNode{g.Root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		stack = append(stack, g.edges[n]...)
	}
	return seen
}

// Path is a root-anchored walk through Gτ recorded as the sequence of
// nodes and, for each step, the rule-item index taken.
type Path struct {
	Nodes []GraphNode
	Items []int // Items[i] is the rule-item index of the edge Nodes[i]→Nodes[i+1]
}

// End returns the last node of the path.
func (p *Path) End() GraphNode { return p.Nodes[len(p.Nodes)-1] }

// SimplePaths enumerates all simple paths (no repeated node) from the
// root, calling visit for each; visit returning false stops the
// enumeration early. Every prefix is visited, starting with the
// root-only path.
func (g *Graph) SimplePaths(visit func(p *Path) bool) {
	onPath := map[GraphNode]bool{g.Root: true}
	cur := &Path{Nodes: []GraphNode{g.Root}}
	stop := false
	var rec func()
	rec = func() {
		if stop {
			return
		}
		if !visit(cur) {
			stop = true
			return
		}
		n := cur.End()
		succ := g.edges[n]
		idx := g.edgeIdx[n]
		for i, m := range succ {
			if onPath[m] {
				continue
			}
			onPath[m] = true
			cur.Nodes = append(cur.Nodes, m)
			cur.Items = append(cur.Items, idx[i])
			rec()
			cur.Nodes = cur.Nodes[:len(cur.Nodes)-1]
			cur.Items = cur.Items[:len(cur.Items)-1]
			onPath[m] = false
			if stop {
				return
			}
		}
	}
	rec()
}

// LongestPathLen returns the length (edge count) of the longest simple
// path from the root — the depth bound D used by the nonrecursive
// membership algorithm (Theorem 2(3)). For recursive transducers this is
// still well-defined (simple paths) but expensive; callers should check
// HasCycle first when cheapness matters.
func (g *Graph) LongestPathLen() int {
	best := 0
	g.SimplePaths(func(p *Path) bool {
		if l := len(p.Nodes) - 1; l > best {
			best = l
		}
		return true
	})
	return best
}

// TopoSort returns the reachable nodes in topological order; it fails if
// the graph is cyclic.
func (g *Graph) TopoSort() ([]GraphNode, error) {
	if g.HasCycle() {
		return nil, fmt.Errorf("pt: dependency graph is cyclic")
	}
	reach := g.Reachable()
	indeg := make(map[GraphNode]int)
	for n := range reach {
		indeg[n] += 0
		for _, m := range g.edges[n] {
			if reach[m] {
				indeg[m]++
			}
		}
	}
	var queue []GraphNode
	for _, n := range g.nodes {
		if reach[n] && indeg[n] == 0 {
			queue = append(queue, n)
		}
	}
	var out []GraphNode
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		out = append(out, n)
		for _, m := range g.edges[n] {
			if !reach[m] {
				continue
			}
			indeg[m]--
			if indeg[m] == 0 {
				queue = append(queue, m)
			}
		}
	}
	return out, nil
}

// IsRecursive reports whether the transducer's dependency graph has a
// cycle (Section 3).
func (t *Transducer) IsRecursive() bool {
	return t.DependencyGraph().HasCycle()
}
