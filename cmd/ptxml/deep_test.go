package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeChainSpec generates a spec whose output on {R1(v)} is a chain of
// n "a" nodes under the root: the deep regime of Proposition 1(4) as a
// real CLI input. Returns the spec and data file paths.
func writeChainSpec(t *testing.T, dir string, n int) (spec, data string) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("schema R1/1\ntransducer chain root r start q0\ntag a/1\n\n")
	sb.WriteString("rule q0 r -> (q1, a, [x;] R1(x))\n")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&sb, "rule q%d a -> (q%d, a, [x;] Reg(x))\n", i, i+1)
	}
	spec = filepath.Join(dir, "chain.pt")
	data = filepath.Join(dir, "chain.db")
	if err := os.WriteFile(spec, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(data, []byte("R1(v)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return spec, data
}

// TestDeepChainCLI: a depth-10^6 document must flow through the whole
// CLI — parse, validate, expand, serialize — without stack overflow.
// The old recursive writer died here long before the expansion did.
func TestDeepChainCLI(t *testing.T) {
	n := 1_000_000
	if raceEnabled {
		n = 100_000 // the detector is ~10× slower; full depth adds nothing here
	}
	spec, data := writeChainSpec(t, t.TempDir(), n)

	var out, errBuf bytes.Buffer
	args := []string{"-spec", spec, "-data", data, "-canonical", "-max-nodes", "0", "-max-depth", "0"}
	if code := run(args, &out, &errBuf); code != 0 {
		t.Fatalf("ptxml %v: exit %d, stderr: %s", args, code, errBuf.String())
	}
	// r + n a-tags, n paren pairs, trailing newline.
	if got, want := out.Len(), 3*n+2; got != want {
		t.Fatalf("canonical output length %d, want %d", got, want)
	}
	s := out.String()
	if !strings.HasPrefix(s, "r(a(a(") || !strings.HasSuffix(s, ")))\n") {
		t.Fatalf("canonical shape wrong: %.12s…%s", s, s[len(s)-5:])
	}
}

// TestDeepChainCLICacheModes: the same chain at a depth the old writer
// could still survive, byte-identical across all cache modes and both
// output formats.
func TestDeepChainCLICacheModes(t *testing.T) {
	dir := t.TempDir()
	// Indented XML of a depth-n chain is Θ(n²) bytes, so the XML format
	// gets a shallower chain than canonical.
	canonSpec, canonData := writeChainSpec(t, dir, 20_000)
	xmlDir := filepath.Join(dir, "xml")
	if err := os.Mkdir(xmlDir, 0o755); err != nil {
		t.Fatal(err)
	}
	xmlSpec, xmlData := writeChainSpec(t, xmlDir, 2_000)

	for _, tc := range []struct {
		format     []string
		spec, data string
	}{
		{[]string{"-canonical"}, canonSpec, canonData},
		{nil, xmlSpec, xmlData},
	} {
		var base []byte
		for _, cache := range []string{"off", "query"} {
			var out, errBuf bytes.Buffer
			args := append([]string{"-spec", tc.spec, "-data", tc.data,
				"-cache", cache, "-max-nodes", "0", "-max-depth", "0"}, tc.format...)
			if code := run(args, &out, &errBuf); code != 0 {
				t.Fatalf("ptxml %v: exit %d, stderr: %s", args, code, errBuf.String())
			}
			if base == nil {
				base = append([]byte(nil), out.Bytes()...)
				continue
			}
			if !bytes.Equal(out.Bytes(), base) {
				t.Errorf("format %v cache=%s: output differs from cache-off bytes", tc.format, cache)
			}
		}
	}
}
