// Package xmltree implements Σ-trees with local storage (Section 2 of
// the paper): unranked, node-labeled ordered trees whose nodes carry a
// register relation over the data domain. Trees are built by publishing
// transducers and then stripped of registers/states for output;
// virtual-tag nodes are spliced out by replacing them with their
// children.
//
// Proposition 1(4) of the paper allows legitimately exponentially deep
// and doubly-exponentially large outputs. Every traversal in this
// package is therefore ITERATIVE (explicit stacks, no recursion), and
// the serializers stream to an io.Writer instead of materializing whole
// documents; see stream.go. Clone, Strip and SpliceVirtual assume a
// tree: no node is the child of two parents.
package xmltree

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"ptx/internal/relation"
	"ptx/internal/value"
)

// TextTag is the reserved tag for text leaves; a text node carries the
// string representation of its register and has no children.
const TextTag = "text"

// Node is a tree node. While a transducer is running, a node may carry
// a State (the (q,a) labeling of the paper); finalized nodes have an
// empty State. Reg is the node's local register (nil once stripped).
type Node struct {
	Tag      string
	State    string
	Reg      *relation.Relation
	Text     string
	Children []*Node
}

// Tree is a rooted Σ-tree; no node is the child of two parents.
type Tree struct {
	Root *Node
}

// New returns a tree with a single root node labeled tag.
func New(tag string) *Tree {
	return &Tree{Root: &Node{Tag: tag}}
}

// AddChild appends a child labeled tag and returns it.
func (n *Node) AddChild(tag string) *Node {
	c := &Node{Tag: tag}
	n.Children = append(n.Children, c)
	return c
}

// IsText reports whether the node is a text leaf.
func (n *Node) IsText() bool { return n.Tag == TextTag }

// Size returns the number of nodes in the subtree rooted at n.
func (n *Node) Size() int {
	s := 0
	stack := []*Node{n}
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s++
		stack = append(stack, nd.Children...)
	}
	return s
}

// Depth returns the height of the subtree rooted at n (a leaf has
// depth 1).
func (n *Node) Depth() int {
	type item struct {
		n *Node
		d int
	}
	max := 0
	stack := []item{{n, 1}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if it.d > max {
			max = it.d
		}
		for _, c := range it.n.Children {
			stack = append(stack, item{c, it.d + 1})
		}
	}
	return max
}

// Size returns the number of nodes in the tree.
func (t *Tree) Size() int { return t.Root.Size() }

// Depth returns the height of the tree.
func (t *Tree) Depth() int { return t.Root.Depth() }

// Walk visits every node in document order (pre-order); it stops the
// entire walk as soon as f returns false.
func (t *Tree) Walk(f func(*Node) bool) {
	stack := []*Node{t.Root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !f(n) {
			return
		}
		for i := len(n.Children) - 1; i >= 0; i-- {
			stack = append(stack, n.Children[i])
		}
	}
}

// CountTag returns the number of nodes labeled tag.
func (t *Tree) CountTag(tag string) int {
	n := 0
	t.Walk(func(nd *Node) bool {
		if nd.Tag == tag {
			n++
		}
		return true
	})
	return n
}

// Labels returns the set of tags used in the tree, sorted.
func (t *Tree) Labels() []string {
	set := make(map[string]bool)
	t.Walk(func(nd *Node) bool {
		set[nd.Tag] = true
		return true
	})
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the tree (registers are cloned too).
func (t *Tree) Clone() *Tree {
	return &Tree{Root: cloneNode(t.Root, nil)}
}

// CloneShared is Clone that also returns the old→new node mapping, so
// callers holding references into t (e.g. a checkpoint frontier) can
// translate them into the copy.
func (t *Tree) CloneShared() (*Tree, map[*Node]*Node) {
	remap := make(map[*Node]*Node)
	return &Tree{Root: cloneNode(t.Root, remap)}, remap
}

// cloneNode deep-copies the subtree rooted at n, recording each
// old→new pair in remap when it is non-nil.
func cloneNode(n *Node, remap map[*Node]*Node) *Node {
	type pair struct{ src, dst *Node }
	copyShallow := func(n *Node) *Node {
		c := &Node{Tag: n.Tag, State: n.State, Text: n.Text}
		if n.Reg != nil {
			c.Reg = n.Reg.Clone()
		}
		if remap != nil {
			remap[n] = c
		}
		return c
	}
	root := copyShallow(n)
	stack := []pair{{n, root}}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if len(p.src.Children) == 0 {
			continue
		}
		p.dst.Children = make([]*Node, len(p.src.Children))
		for i, c := range p.src.Children {
			cc := copyShallow(c)
			p.dst.Children[i] = cc
			stack = append(stack, pair{c, cc})
		}
	}
	return root
}

// Strip removes registers and states in place, producing the plain
// Σ-tree output of a transformation.
func (t *Tree) Strip() *Tree {
	t.Walk(func(n *Node) bool {
		n.Reg = nil
		n.State = ""
		return true
	})
	return t
}

// SpliceVirtual removes every node whose tag is in virtual, replacing
// it by its children, repeatedly until no virtual tags remain. The root
// is never virtual (enforced by the transducer definition). The splice
// is in place: it follows the emission order of the *Virtual writers,
// and each element that closes takes the children emitted inside it.
func (t *Tree) SpliceVirtual(virtual map[string]bool) *Tree {
	if len(virtual) == 0 {
		return t
	}
	em := newEmitter(t.Root, virtual)
	var kids []*Node // the children emitted so far inside each open element, in order
	var starts []int // starts[i]: where the i-th open element's children begin in kids
	for {
		kind, n, _ := em.next()
		switch kind {
		case 0:
			return t
		case 'o':
			kids = append(kids, n)
			starts = append(starts, len(kids))
		case 't':
			kids = append(kids, n)
		case 'c':
			i := starts[len(starts)-1]
			starts = starts[:len(starts)-1]
			if !slices.Equal(kids[i:], n.Children) {
				n.Children = slices.Clone(kids[i:])
			}
			kids = kids[:i]
		}
	}
}

// Equal reports structural equality of two trees: same tags, same text,
// same child sequences. Registers and states are ignored (they are not
// part of the output Σ-tree).
func (t *Tree) Equal(o *Tree) bool {
	type pair struct{ a, b *Node }
	stack := []pair{{t.Root, o.Root}}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p.a == p.b {
			continue // the same node: trivially equal
		}
		if p.a.Tag != p.b.Tag || p.a.Text != p.b.Text || len(p.a.Children) != len(p.b.Children) {
			return false
		}
		for i := range p.a.Children {
			stack = append(stack, pair{p.a.Children[i], p.b.Children[i]})
		}
	}
	return true
}

// Canonical returns a canonical single-line rendering of the output
// tree: tag(child,child,…) with text leaves as tag="…". Two trees are
// Equal iff their Canonical strings agree, so it doubles as a hash key.
// Prefer WriteCanonical on large trees: this variant materializes the
// whole document in memory.
func (t *Tree) Canonical() string {
	var sb strings.Builder
	if err := t.WriteCanonical(&sb); err != nil {
		panic(err) // strings.Builder never errors
	}
	return sb.String()
}

// XML serializes the tree as an indented XML document. Prefer WriteXML
// on large trees: this variant materializes the whole document in
// memory.
func (t *Tree) XML() string {
	var sb strings.Builder
	if err := t.WriteXML(&sb); err != nil {
		panic(err) // strings.Builder never errors
	}
	return sb.String()
}

// TextOfRegister renders a register relation as the pcdata payload of a
// text node, using the canonical tuple order. A singleton unary register
// renders as its bare value, matching the examples in the paper.
func TextOfRegister(r *relation.Relation) string {
	if r == nil {
		return ""
	}
	ts := r.Sorted()
	if len(ts) == 1 && len(ts[0]) == 1 {
		return string(ts[0][0])
	}
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, " ")
}

// Parse parses the Canonical rendering back into a tree; it accepts
// exactly the grammar produced by Canonical and is used to state
// expected trees compactly in tests and in membership inputs.
//
//	tree  := node
//	node  := tag | tag '(' node (',' node)* ')' | tag '=' quoted
func Parse(s string) (*Tree, error) {
	p := &parser{src: s}
	n, err := p.node()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("xmltree: trailing input at %d in %q", p.pos, s)
	}
	return &Tree{Root: n}, nil
}

// MustParse is Parse that panics on error; for test literals.
func MustParse(s string) *Tree {
	t, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return t
}

type parser struct {
	src string
	pos int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n') {
		p.pos++
	}
}

// node parses one node iteratively: open stands in for the recursion
// stack so that deeply nested canonical inputs cannot overflow it.
func (p *parser) node() (*Node, error) {
	var open []*Node // ancestors with an unclosed '('
	for {
		n, isText, err := p.leaf()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos < len(p.src) && p.src[p.pos] == '(' && !isText {
			p.pos++
			open = append(open, n)
			continue
		}
		// n is complete; attach and close as many parents as possible.
		for {
			if len(open) == 0 {
				return n, nil
			}
			parent := open[len(open)-1]
			parent.Children = append(parent.Children, n)
			p.skipSpace()
			if p.pos >= len(p.src) {
				return nil, fmt.Errorf("xmltree: unterminated '(' in %q", p.src)
			}
			switch p.src[p.pos] {
			case ',':
				p.pos++
			case ')':
				p.pos++
				open = open[:len(open)-1]
				n = parent
				continue
			default:
				return nil, fmt.Errorf("xmltree: expected ',' or ')' at %d in %q", p.pos, p.src)
			}
			break
		}
	}
}

// leaf parses tag or tag="…" (without children); isText reports the
// latter form, which cannot be followed by a child list.
func (p *parser) leaf() (n *Node, isText bool, err error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && isTagByte(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return nil, false, fmt.Errorf("xmltree: expected tag at %d in %q", p.pos, p.src)
	}
	n = &Node{Tag: p.src[start:p.pos]}
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '=' {
		p.pos++
		txt, err := p.quoted()
		if err != nil {
			return nil, false, err
		}
		n.Text = txt
		isText = true
	}
	return n, isText, nil
}

func (p *parser) quoted() (string, error) {
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != '"' {
		return "", fmt.Errorf("xmltree: expected '\"' at %d in %q", p.pos, p.src)
	}
	p.pos++
	var sb strings.Builder
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case '\\':
			if p.pos+1 < len(p.src) {
				sb.WriteByte(p.src[p.pos+1])
				p.pos += 2
				continue
			}
			return "", fmt.Errorf("xmltree: dangling escape in %q", p.src)
		case '"':
			p.pos++
			return sb.String(), nil
		default:
			sb.WriteByte(p.src[p.pos])
			p.pos++
		}
	}
	return "", fmt.Errorf("xmltree: unterminated string in %q", p.src)
}

func isTagByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9' || b == '_' || b == '-' || b == '.'
}

// RegisterOfSingle builds a register holding a single tuple of the given
// string values; a convenience for tests.
func RegisterOfSingle(vals ...string) *relation.Relation {
	t := make(value.Tuple, len(vals))
	for i, s := range vals {
		t[i] = value.V(s)
	}
	return relation.FromTuples(len(vals), t)
}

// SortedCanonical returns the canonical rendering after recursively
// sorting siblings, i.e. a representation of the tree as an *unordered*
// tree. Theorem 4(4) of the paper relates transducers and fixed-depth
// transductions over unordered trees; round-trip tests compare with
// this form.
func (t *Tree) SortedCanonical() string {
	type frame struct {
		n     *Node
		i     int
		parts []string
	}
	render := func(n *Node) (string, bool) {
		if n.IsText() {
			return n.Tag + "=" + fmt.Sprintf("%q", n.Text), true
		}
		if len(n.Children) == 0 {
			return n.Tag, true
		}
		return "", false
	}
	if s, ok := render(t.Root); ok {
		return s
	}
	stack := []frame{{n: t.Root, parts: make([]string, 0, len(t.Root.Children))}}
	for {
		f := &stack[len(stack)-1]
		if f.i < len(f.n.Children) {
			c := f.n.Children[f.i]
			f.i++
			if s, ok := render(c); ok {
				f.parts = append(f.parts, s)
				continue
			}
			stack = append(stack, frame{n: c, parts: make([]string, 0, len(c.Children))})
			continue
		}
		sort.Strings(f.parts)
		s := f.n.Tag + "(" + strings.Join(f.parts, ",") + ")"
		stack = stack[:len(stack)-1]
		if len(stack) == 0 {
			return s
		}
		p := &stack[len(stack)-1]
		p.parts = append(p.parts, s)
	}
}
