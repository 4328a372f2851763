package xmltree

import (
	"strings"
	"testing"

	"ptx/internal/relation"
)

func TestParseCanonicalRoundTrip(t *testing.T) {
	cases := []string{
		"r",
		"r(a)",
		"r(a,b,c)",
		"r(a(b(c)),d)",
		`r(text="hello")`,
		`r(a(text="x y"),b)`,
	}
	for _, c := range cases {
		tr, err := Parse(c)
		if err != nil {
			t.Errorf("%q: %v", c, err)
			continue
		}
		if tr.Canonical() != c {
			t.Errorf("round trip %q → %q", c, tr.Canonical())
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, c := range []string{"", "(", "r(", "r(a", "r(a,)", "r)x", `r(text=`, `r(text="unterminated`} {
		if _, err := Parse(c); err == nil {
			t.Errorf("%q should fail to parse", c)
		}
	}
}

func TestSizeDepthCount(t *testing.T) {
	tr := MustParse("r(a(b,b),a)")
	if tr.Size() != 5 {
		t.Errorf("Size = %d", tr.Size())
	}
	if tr.Depth() != 3 {
		t.Errorf("Depth = %d", tr.Depth())
	}
	if tr.CountTag("a") != 2 || tr.CountTag("b") != 2 || tr.CountTag("zz") != 0 {
		t.Error("CountTag wrong")
	}
	labels := tr.Labels()
	if len(labels) != 3 || labels[0] != "a" || labels[2] != "r" {
		t.Errorf("Labels = %v", labels)
	}
}

func TestEqualOrderSensitive(t *testing.T) {
	a := MustParse("r(a,b)")
	b := MustParse("r(b,a)")
	if a.Equal(b) {
		t.Error("sibling order matters for Equal")
	}
	if a.SortedCanonical() != b.SortedCanonical() {
		t.Error("SortedCanonical should ignore sibling order")
	}
	if !a.Equal(MustParse("r(a,b)")) {
		t.Error("identical trees should be Equal")
	}
}

func TestEqualTextSensitive(t *testing.T) {
	a := MustParse(`r(text="x")`)
	b := MustParse(`r(text="y")`)
	if a.Equal(b) {
		t.Error("text payload matters")
	}
}

func TestSpliceVirtual(t *testing.T) {
	tr := MustParse("r(v(a,v(b)),c)")
	tr.SpliceVirtual(map[string]bool{"v": true})
	if tr.Canonical() != "r(a,b,c)" {
		t.Fatalf("spliced = %s", tr.Canonical())
	}
	// Nested virtual chains vanish entirely.
	tr2 := MustParse("r(v(v(v)))")
	tr2.SpliceVirtual(map[string]bool{"v": true})
	if tr2.Canonical() != "r" {
		t.Fatalf("spliced = %s", tr2.Canonical())
	}
	// Deeply nested virtual chains splice iteratively, in place.
	deep := New("r")
	cur := deep.Root
	for i := 0; i < 50_000; i++ {
		cur = cur.AddChild("v")
	}
	cur.AddChild("leaf")
	if got := deep.SpliceVirtual(map[string]bool{"v": true}).Canonical(); got != "r(leaf)" {
		t.Fatalf("spliced deep virtual chain = %q", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := MustParse("r(a)")
	cp := tr.Clone()
	cp.Root.Children[0].Tag = "b"
	if tr.Root.Children[0].Tag != "a" {
		t.Error("clone shares nodes")
	}
}

func TestXMLEscaping(t *testing.T) {
	tr := New("r")
	c := tr.Root.AddChild(TextTag)
	c.Text = `<&>"`
	x := tr.XML()
	if !strings.Contains(x, "&lt;&amp;&gt;&quot;") {
		t.Fatalf("XML = %s", x)
	}
}

func TestXMLShape(t *testing.T) {
	tr := MustParse("r(a,b)")
	want := "<r>\n  <a/>\n  <b/>\n</r>\n"
	if tr.XML() != want {
		t.Fatalf("XML = %q", tr.XML())
	}
}

func TestTextOfRegister(t *testing.T) {
	if got := TextOfRegister(nil); got != "" {
		t.Errorf("nil register: %q", got)
	}
	single := relation.FromRows([]string{"v"})
	if got := TextOfRegister(single); got != "v" {
		t.Errorf("singleton unary: %q", got)
	}
	multi := relation.FromRows([]string{"b", "2"}, []string{"a", "1"})
	if got := TextOfRegister(multi); got != "(a,1) (b,2)" {
		t.Errorf("multi: %q", got)
	}
}

func TestWalkEarlyStop(t *testing.T) {
	tr := MustParse("r(a(b),c)")
	visited := 0
	tr.Walk(func(n *Node) bool {
		visited++
		return n.Tag != "a"
	})
	if visited != 2 { // r, a — stop before b and c
		t.Errorf("visited = %d", visited)
	}
}
