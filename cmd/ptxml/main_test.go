package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// counterSpec is the doubly-exponential counter transducer of
// Proposition 1(4) in surface syntax: each a-node carries the full
// n-digit counter in a relation register, increments it via the adder
// table, and spawns two copies. It cannot finish for any realistic n.
const counterSpec = `# Proposition 1(4) counter: 2^(2^n) nodes. Diverges on purpose.
schema counter/3, add/5, next/2
transducer counterdiv root r start q0
tag a/3, a2/3

rule q0 r ->
  (q,  a,  [;k,d,c] counter(k,d,c)),
  (q2, a2, [;k,d,c] counter(k,d,c))
rule q a ->
  (q,  a,  [;k,d,c] exists d1,c1,kp,d2,c2,d3,c3 .
    Reg(k,d1,c1) & Reg(kp,d2,c2) & next(kp,k) & counter(k,d3,c3) & add(d1,c2,c3,d,c)),
  (q2, a2, [;k,d,c] exists d1,c1,kp,d2,c2,d3,c3 .
    Reg(k,d1,c1) & Reg(kp,d2,c2) & next(kp,k) & counter(k,d3,c3) & add(d1,c2,c3,d,c))
rule q2 a2 ->
  (q,  a,  [;k,d,c] exists d1,c1,kp,d2,c2,d3,c3 .
    Reg(k,d1,c1) & Reg(kp,d2,c2) & next(kp,k) & counter(k,d3,c3) & add(d1,c2,c3,d,c)),
  (q2, a2, [;k,d,c] exists d1,c1,kp,d2,c2,d3,c3 .
    Reg(k,d1,c1) & Reg(kp,d2,c2) & next(kp,k) & counter(k,d3,c3) & add(d1,c2,c3,d,c))
`

// counterData builds the n-digit counter instance Jₙ.
func counterData(n int) string {
	var b strings.Builder
	for k := 0; k < n; k++ {
		carry := "0"
		if k == 0 {
			carry = "1"
		}
		fmt.Fprintf(&b, "counter(%d, 0, %s)\n", k, carry)
		fmt.Fprintf(&b, "next(%d, %d)\n", k, (k+1)%n)
	}
	for _, row := range [][5]string{
		{"0", "0", "0", "0", "0"}, {"0", "0", "1", "1", "0"},
		{"0", "1", "0", "1", "0"}, {"0", "1", "1", "0", "1"},
		{"1", "0", "0", "1", "0"}, {"1", "0", "1", "0", "1"},
		{"1", "1", "0", "0", "1"}, {"1", "1", "1", "1", "1"},
	} {
		fmt.Fprintf(&b, "add(%s, %s, %s, %s, %s)\n", row[0], row[1], row[2], row[3], row[4])
	}
	return b.String()
}

func writeCounterFiles(t *testing.T) (spec, data string) {
	t.Helper()
	dir := t.TempDir()
	spec = filepath.Join(dir, "counter.pt")
	data = filepath.Join(dir, "counter.db")
	if err := os.WriteFile(spec, []byte(counterSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(data, []byte(counterData(8)), 0o644); err != nil {
		t.Fatal(err)
	}
	return spec, data
}

// TestCLITimeoutOnDivergentSpec is the CLI half of the acceptance
// criterion: a divergent relation-store spec under -timeout 100ms must
// exit with the deadline code within ~2× the deadline.
func TestCLITimeoutOnDivergentSpec(t *testing.T) {
	spec, data := writeCounterFiles(t)
	var stdout, stderr bytes.Buffer
	start := time.Now()
	code := run([]string{
		"-spec", spec, "-data", data,
		"-timeout", "100ms", "-max-nodes", "0",
	}, &stdout, &stderr)
	elapsed := time.Since(start)
	if code != 5 {
		t.Fatalf("exit code = %d, want 5 (deadline); stderr: %s", code, stderr.String())
	}
	if elapsed > 400*time.Millisecond {
		t.Errorf("CLI returned after %v with a 100ms -timeout", elapsed)
	}
	if !strings.Contains(stderr.String(), "raise -timeout") {
		t.Errorf("stderr should point at -timeout: %q", stderr.String())
	}
}

// TestCLINodeBudgetOnDivergentSpec: the same spec with only a node
// budget exits with the budget code and cites the budget kind.
func TestCLINodeBudgetOnDivergentSpec(t *testing.T) {
	spec, data := writeCounterFiles(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-spec", spec, "-data", data, "-max-nodes", "500"}, &stdout, &stderr)
	if code != 4 {
		t.Fatalf("exit code = %d, want 4 (budget); stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "nodes") {
		t.Errorf("stderr should name the exhausted budget: %q", stderr.String())
	}
}

// TestCLISuccess keeps the happy path honest: the shipped example spec
// must still render and exit 0.
func TestCLISuccess(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-spec", filepath.Join("..", "..", "examples", "specs", "tau1.pt"),
		"-data", filepath.Join("..", "..", "examples", "specs", "registrar.db"),
		"-canonical",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "db(") {
		t.Errorf("unexpected canonical output: %q", stdout.String())
	}
}

func TestCLIUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := run([]string{"-nonsense"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
}
