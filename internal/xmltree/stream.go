package xmltree

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// This file is the streaming serialization layer. The writers walk the
// tree with an explicit stack and emit bytes as they go: no recursion
// (depth-10^6 chains are fine) and no whole-document buffer (memory is
// O(tree depth), not O(document size)). The *Virtual variants splice
// virtual-tag nodes at emission time — a virtual node contributes its
// children in its place — so callers can serialize a transducer's raw
// ξ tree directly, without first mutating or copying it. Registers and
// states are simply not emitted, so stripping is not required either.

// xmlEscaper escapes text payloads for XML. Beyond the four classic
// metacharacters it escapes the apostrophe and the control characters
// that XML parsers would otherwise normalize away (\t, \n, \r as
// numeric character references), so text nodes round-trip exactly.
var xmlEscaper = strings.NewReplacer(
	"&", "&amp;",
	"<", "&lt;",
	">", "&gt;",
	`"`, "&quot;",
	"'", "&#39;",
	"\t", "&#x9;",
	"\n", "&#xA;",
	"\r", "&#xD;",
)

// streamItem is one entry of the emission stack: a node still to be
// visited, or (close=true) the pending end-event of an element whose
// subtree has been emitted.
type streamItem struct {
	n     *Node
	depth int
	close bool
}

// emitter drives a pre-order traversal producing open/text/close
// events, splicing nodes whose tag is in virtual.
type emitter struct {
	stack   []streamItem
	virtual map[string]bool
}

func newEmitter(root *Node, virtual map[string]bool) *emitter {
	return &emitter{stack: []streamItem{{n: root}}, virtual: virtual}
}

// next returns the next event; kind is 'o' (open element), 't' (text
// leaf), 'c' (close element), or 0 when the traversal is done.
func (e *emitter) next() (kind byte, n *Node, depth int) {
	for len(e.stack) > 0 {
		it := e.stack[len(e.stack)-1]
		e.stack = e.stack[:len(e.stack)-1]
		switch {
		case it.close:
			return 'c', it.n, it.depth
		case e.virtual[it.n.Tag]:
			// Splice: the node vanishes and its children take its
			// place, at its depth. Nested virtual children are spliced
			// in turn when popped.
			for i := len(it.n.Children) - 1; i >= 0; i-- {
				e.stack = append(e.stack, streamItem{n: it.n.Children[i], depth: it.depth})
			}
		case it.n.IsText():
			return 't', it.n, it.depth
		default:
			e.stack = append(e.stack, streamItem{n: it.n, depth: it.depth, close: true})
			for i := len(it.n.Children) - 1; i >= 0; i-- {
				e.stack = append(e.stack, streamItem{n: it.n.Children[i], depth: it.depth + 1})
			}
			return 'o', it.n, it.depth
		}
	}
	return 0, nil, 0
}

// indenter hands out "  "-per-level indentation without re-allocating
// per node (a depth-d chain would otherwise pay O(d²) in Repeat calls).
type indenter []byte

func (ind *indenter) bytes(depth int) []byte {
	for len(*ind) < 2*depth {
		*ind = append(*ind, "                                "...)
	}
	return (*ind)[:2*depth]
}

// WriteXML streams the tree to w as an indented XML document,
// byte-identical to XML(). Memory use is proportional to the tree's
// depth.
func (t *Tree) WriteXML(w io.Writer) error {
	return t.WriteXMLVirtual(w, nil)
}

// WriteXMLVirtual is WriteXML with virtual-tag splicing at emission:
// nodes whose tag is in virtual are not emitted, their children appear
// in their place. The tree is not modified. The root's tag must not be
// virtual (guaranteed for transducer output trees).
func (t *Tree) WriteXMLVirtual(w io.Writer, virtual map[string]bool) error {
	bw := bufio.NewWriter(w)
	em := newEmitter(t.Root, virtual)
	var ind indenter
	// One-event lookahead: an element's start tag is held back until we
	// know whether anything is emitted inside it, deciding <a/> vs
	// <a>…</a>. At any close event the pending open, if still unflushed,
	// is necessarily the matching one.
	var pending *Node
	var pendingDepth int
	flush := func() {
		if pending == nil {
			return
		}
		bw.Write(ind.bytes(pendingDepth))
		bw.WriteByte('<')
		bw.WriteString(pending.Tag)
		bw.WriteString(">\n")
		pending = nil
	}
	for {
		kind, n, depth := em.next()
		if kind == 0 {
			break
		}
		switch kind {
		case 'o':
			flush()
			pending, pendingDepth = n, depth
		case 't':
			flush()
			bw.Write(ind.bytes(depth))
			bw.WriteString(xmlEscaper.Replace(n.Text))
			bw.WriteByte('\n')
		case 'c':
			if pending != nil {
				bw.Write(ind.bytes(depth))
				bw.WriteByte('<')
				bw.WriteString(n.Tag)
				bw.WriteString("/>\n")
				pending = nil
			} else {
				bw.Write(ind.bytes(depth))
				bw.WriteString("</")
				bw.WriteString(n.Tag)
				bw.WriteString(">\n")
			}
		}
	}
	return bw.Flush()
}

// WriteCanonical streams the canonical single-line rendering to w,
// byte-identical to Canonical(). Memory use is proportional to the
// tree's depth.
func (t *Tree) WriteCanonical(w io.Writer) error {
	return t.WriteCanonicalVirtual(w, nil)
}

// WriteCanonicalVirtual is WriteCanonical with virtual-tag splicing at
// emission (see WriteXMLVirtual).
func (t *Tree) WriteCanonicalVirtual(w io.Writer, virtual map[string]bool) error {
	bw := bufio.NewWriter(w)
	em := newEmitter(t.Root, virtual)
	// counts[i] = children emitted so far inside the i-th open paren.
	var counts []int
	var pending *Node // element whose tag/paren is not yet written
	sep := func() {
		if len(counts) > 0 {
			if counts[len(counts)-1] > 0 {
				bw.WriteByte(',')
			}
			counts[len(counts)-1]++
		}
	}
	flush := func() {
		if pending == nil {
			return
		}
		sep()
		bw.WriteString(pending.Tag)
		bw.WriteByte('(')
		counts = append(counts, 0)
		pending = nil
	}
	for {
		kind, n, _ := em.next()
		if kind == 0 {
			break
		}
		switch kind {
		case 'o':
			flush()
			pending = n
		case 't':
			flush()
			sep()
			bw.WriteString(n.Tag)
			bw.WriteByte('=')
			bw.WriteString(strconv.Quote(n.Text))
		case 'c':
			if pending != nil {
				sep()
				bw.WriteString(n.Tag)
				pending = nil
			} else {
				bw.WriteByte(')')
				counts = counts[:len(counts)-1]
			}
		}
	}
	return bw.Flush()
}
