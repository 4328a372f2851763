package xmltree

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// ---------------------------------------------------------------------
// Recursive oracles: verbatim copies of the pre-streaming writers (and
// helpers), kept here so every streaming/iterative code path can be
// checked byte-for-byte against the original recursive semantics. They
// intentionally share xmlEscaper with the production code — the
// escaping fix is pinned separately in TestEscaperCoversQuotesAndControls.
// ---------------------------------------------------------------------

func oracleCanonical(t *Tree) string {
	var sb strings.Builder
	oracleWriteCanonical(&sb, t.Root)
	return sb.String()
}

func oracleWriteCanonical(sb *strings.Builder, n *Node) {
	sb.WriteString(n.Tag)
	if n.IsText() {
		fmt.Fprintf(sb, "=%q", n.Text)
		return
	}
	if len(n.Children) == 0 {
		return
	}
	sb.WriteByte('(')
	for i, c := range n.Children {
		if i > 0 {
			sb.WriteByte(',')
		}
		oracleWriteCanonical(sb, c)
	}
	sb.WriteByte(')')
}

func oracleXML(t *Tree) string {
	var sb strings.Builder
	oracleWriteXML(&sb, t.Root, 0)
	return sb.String()
}

func oracleWriteXML(sb *strings.Builder, n *Node, depth int) {
	indent := strings.Repeat("  ", depth)
	if n.IsText() {
		sb.WriteString(indent)
		sb.WriteString(xmlEscaper.Replace(n.Text))
		sb.WriteByte('\n')
		return
	}
	if len(n.Children) == 0 {
		fmt.Fprintf(sb, "%s<%s/>\n", indent, n.Tag)
		return
	}
	fmt.Fprintf(sb, "%s<%s>\n", indent, n.Tag)
	for _, c := range n.Children {
		oracleWriteXML(sb, c, depth+1)
	}
	fmt.Fprintf(sb, "%s</%s>\n", indent, n.Tag)
}

func oracleSortedCanonical(t *Tree) string {
	var render func(n *Node) string
	render = func(n *Node) string {
		if n.IsText() {
			return n.Tag + "=" + fmt.Sprintf("%q", n.Text)
		}
		if len(n.Children) == 0 {
			return n.Tag
		}
		parts := make([]string, len(n.Children))
		for i, c := range n.Children {
			parts[i] = render(c)
		}
		oracleSortStrings(parts)
		return n.Tag + "(" + strings.Join(parts, ",") + ")"
	}
	return render(t.Root)
}

// oracleSortStrings is the O(n²) insertion sort that Labels and
// SortedCanonical used before switching to sort.Strings.
func oracleSortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// oracleSplice is the post-order splice SpliceVirtual ran before it
// moved onto the writers' emitter: once a node's descendants are
// spliced, each virtual child is replaced by its children.
func oracleSplice(t *Tree, virtual map[string]bool) *Tree {
	if len(virtual) == 0 {
		return t
	}
	type frame struct {
		n *Node
		i int
	}
	stack := []frame{{t.Root, 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.i < len(f.n.Children) {
			c := f.n.Children[f.i]
			f.i++
			stack = append(stack, frame{c, 0})
			continue
		}
		// All descendants are spliced; rebuild this node's child list.
		n := f.n
		stack = stack[:len(stack)-1]
		splice := false
		for _, c := range n.Children {
			if virtual[c.Tag] {
				splice = true
				break
			}
		}
		if !splice {
			continue
		}
		out := make([]*Node, 0, len(n.Children))
		for _, c := range n.Children {
			if virtual[c.Tag] {
				out = append(out, c.Children...)
			} else {
				out = append(out, c)
			}
		}
		n.Children = out
	}
	return t
}

// randomTree builds a deterministic pseudo-random tree with occasional
// text leaves (whose payloads include XML metacharacters) and tags
// drawn from tags.
func randomTree(r *rand.Rand, depth, maxKids int, tags []string) *Node {
	n := &Node{Tag: tags[r.Intn(len(tags))]}
	if depth == 0 || r.Intn(4) == 0 {
		if r.Intn(3) == 0 {
			n.Tag = TextTag
			n.Text = []string{"plain", `<&>"'`, "tab\there", "nl\nthere", "cr\rthere", ""}[r.Intn(6)]
		}
		return n
	}
	for i := 0; i < r.Intn(maxKids+1); i++ {
		n.Children = append(n.Children, randomTree(r, depth-1, maxKids, tags))
	}
	return n
}

func TestStreamWritersMatchRecursiveOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tags := []string{"a", "b", "c", "d"}
	for i := 0; i < 200; i++ {
		tr := &Tree{Root: randomTree(r, 5, 4, tags)}
		tr.Root.Tag = "root" // never a text leaf at the root
		tr.Root.Text = ""
		if got, want := tr.Canonical(), oracleCanonical(tr); got != want {
			t.Fatalf("tree %d: Canonical\n got %q\nwant %q", i, got, want)
		}
		if got, want := tr.XML(), oracleXML(tr); got != want {
			t.Fatalf("tree %d: XML\n got %q\nwant %q", i, got, want)
		}
		if got, want := tr.SortedCanonical(), oracleSortedCanonical(tr); got != want {
			t.Fatalf("tree %d: SortedCanonical\n got %q\nwant %q", i, got, want)
		}
	}
}

func TestVirtualWritersMatchSpliceOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	tags := []string{"a", "b", "v", "w"}
	virtual := map[string]bool{"v": true, "w": true}
	for i := 0; i < 200; i++ {
		tr := &Tree{Root: randomTree(r, 5, 4, tags)}
		tr.Root.Tag = "root"
		tr.Root.Text = ""
		spliced := tr.Clone().SpliceVirtual(virtual)
		var sb strings.Builder
		if err := tr.WriteCanonicalVirtual(&sb, virtual); err != nil {
			t.Fatal(err)
		}
		if got, want := sb.String(), oracleCanonical(spliced); got != want {
			t.Fatalf("tree %d: canonical splice\n got %q\nwant %q", i, got, want)
		}
		sb.Reset()
		if err := tr.WriteXMLVirtual(&sb, virtual); err != nil {
			t.Fatal(err)
		}
		if got, want := sb.String(), oracleXML(spliced); got != want {
			t.Fatalf("tree %d: XML splice\n got %q\nwant %q", i, got, want)
		}
	}
}

// TestSpliceVirtualMatchesOracle checks SpliceVirtual against the
// independent post-order splice on the trees of
// TestVirtualWritersMatchSpliceOracle, which checks the writers against
// SpliceVirtual: since both run the emitter, this is what ties its
// splice rule to one it does not share.
func TestSpliceVirtualMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	tags := []string{"a", "b", "v", "w"}
	virtual := map[string]bool{"v": true, "w": true}
	for i := 0; i < 200; i++ {
		tr := &Tree{Root: randomTree(r, 5, 4, tags)}
		tr.Root.Tag = "root"
		tr.Root.Text = ""
		want := oracleSplice(tr.Clone(), virtual)
		got := tr.Clone()
		if got.SpliceVirtual(virtual) != got {
			t.Fatalf("tree %d: SpliceVirtual did not return its receiver", i)
		}
		if !got.Equal(want) {
			t.Fatalf("tree %d: splice\n got %s\nwant %s", i, got.Canonical(), want.Canonical())
		}
	}
}

func TestEscaperCoversQuotesAndControls(t *testing.T) {
	tr := New("r")
	c := tr.Root.AddChild(TextTag)
	c.Text = "<&>\"'\t\n\r"
	want := "<r>\n  &lt;&amp;&gt;&quot;&#39;&#x9;&#xA;&#xD;\n</r>\n"
	if got := tr.XML(); got != want {
		t.Fatalf("XML = %q, want %q", got, want)
	}
}

// chainTree builds a root-to-leaf chain of n element nodes labeled "a".
func chainTree(n int) *Tree {
	tr := New("a")
	cur := tr.Root
	for i := 1; i < n; i++ {
		cur = cur.AddChild("a")
	}
	return tr
}

func TestDeepChainMillion(t *testing.T) {
	n := 1_000_000
	if raceEnabled {
		n = 100_000 // the detector is ~10× slower; full depth adds nothing here
	}
	tr := chainTree(n)
	if got := tr.Size(); got != n {
		t.Fatalf("Size = %d", got)
	}
	if got := tr.Depth(); got != n {
		t.Fatalf("Depth = %d", got)
	}
	visited := 0
	tr.Walk(func(*Node) bool { visited++; return true })
	if visited != n {
		t.Fatalf("Walk visited %d", visited)
	}
	cp := tr.Clone()
	if !tr.Equal(cp) {
		t.Fatal("clone not Equal")
	}
	cp.Strip()
	cp.SpliceVirtual(map[string]bool{"zz": true})
	// Canonical of the chain is n tags + (n-1) paren pairs; stream it
	// and parse it back (the parser is iterative too).
	canon := tr.Canonical()
	if len(canon) != n+2*(n-1) {
		t.Fatalf("canonical length %d", len(canon))
	}
	back, err := Parse(canon)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(tr) {
		t.Fatal("canonical round-trip broke the chain")
	}
	// Indented XML of a depth-n chain is Θ(n²) bytes, so only stream it
	// to a sink: the point is that no recursion or per-node Repeat blows
	// up, not the output itself.
	if err := tr.WriteXML(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestDeepChainStreamsMatchOracle(t *testing.T) {
	// Deep enough to prove the iterative walkers, shallow enough that
	// the recursive oracle still fits on a grown goroutine stack. The
	// XML comparison uses a smaller depth because indented XML of a
	// depth-n chain is Θ(n²) bytes.
	tr := chainTree(20_000)
	if got, want := tr.Canonical(), oracleCanonical(tr); got != want {
		t.Fatal("deep chain canonical differs from oracle")
	}
	xtr := chainTree(4_000)
	if got, want := xtr.XML(), oracleXML(xtr); got != want {
		t.Fatal("deep chain XML differs from oracle")
	}
}

// diamondDAG builds the 2-node-per-level DAG whose unfolding is the
// diamond family: each level's node is shared by both references of the
// level above, so the DAG has 2n+1 physical nodes but a 2^n-leaf
// unfolding.
func diamondDAG(n int) *Tree {
	leaf := &Node{Tag: "leaf"}
	cur := leaf
	for i := 0; i < n; i++ {
		cur = &Node{Tag: "pair", Children: []*Node{cur, cur}}
	}
	return &Tree{Root: cur}
}

// physicalSize counts the distinct nodes reachable from the root.
func physicalSize(t *Tree) int {
	seen := map[*Node]bool{}
	stack := []*Node{t.Root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !seen[n] {
			seen[n] = true
			stack = append(stack, n.Children...)
		}
	}
	return len(seen)
}

func TestDiamondDAGStreaming(t *testing.T) {
	// Small instance: byte-identical to the oracle on the unfolding.
	small := diamondDAG(6)
	if got, want := small.Canonical(), oracleCanonical(small.Clone()); got != want {
		t.Fatalf("diamond-6 canonical\n got %q\nwant %q", got, want)
	}
	if got, want := small.XML(), oracleXML(small.Clone()); got != want {
		t.Fatal("diamond-6 XML differs from oracle")
	}

	// Large instance: the unfolding has 2^22 leaves; streaming it may
	// only hold the emission stack. Count the bytes instead of buffering.
	levels := 22
	if raceEnabled {
		levels = 18
	}
	big := diamondDAG(levels)
	if got := physicalSize(big); got != levels+1 {
		t.Fatalf("physical size = %d, want %d", got, levels+1)
	}
	cw := &countWriter{}
	if err := big.WriteCanonical(cw); err != nil {
		t.Fatal(err)
	}
	// leaves: 2^levels × "leaf"; pairs: one "pair()" and one comma per
	// interior node of the unfolding.
	leaves := 1 << levels
	want := leaves*4 + (leaves-1)*6 + (leaves - 1)
	if cw.n != want {
		t.Fatalf("streamed %d bytes, want %d", cw.n, want)
	}
}

type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

func TestParseDeepNesting(t *testing.T) {
	n := 1_000_000
	if raceEnabled {
		n = 100_000
	}
	src := strings.Repeat("a(", n) + "a" + strings.Repeat(")", n)
	tr, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Depth(); got != n+1 {
		t.Fatalf("Depth = %d", got)
	}
}
