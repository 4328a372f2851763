package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden XML files in testdata")

// TestGoldenSpecs runs every example spec through the CLI and compares
// the XML byte-for-byte against the checked-in golden files
// (testdata/<spec>.golden.xml; refresh with go test ./cmd/ptxml -update).
// Every cache mode must reproduce the golden bytes exactly.
func TestGoldenSpecs(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "specs")
	specs, err := filepath.Glob(filepath.Join(dir, "*.pt"))
	if err != nil || len(specs) == 0 {
		t.Skipf("no example specs found in %s", dir)
	}
	data := filepath.Join(dir, "registrar.db")

	for _, spec := range specs {
		spec := spec
		name := filepath.Base(spec)
		t.Run(name, func(t *testing.T) {
			runCLI := func(extra ...string) []byte {
				t.Helper()
				var out, errBuf bytes.Buffer
				args := append([]string{"-spec", spec, "-data", data}, extra...)
				if code := run(args, &out, &errBuf); code != 0 {
					t.Fatalf("ptxml %v: exit %d, stderr: %s", args, code, errBuf.String())
				}
				return out.Bytes()
			}

			got := runCLI()
			golden := filepath.Join("testdata", name+".golden.xml")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output drifted from %s\n got:\n%s\n want:\n%s", golden, got, want)
			}

			// Every cache mode must reproduce the golden bytes, with or
			// without budgets.
			for _, args := range [][]string{
				{"-cache", "query"},
				{"-cache", "query", "-max-nodes", "0"},
			} {
				if cached := runCLI(args...); !bytes.Equal(cached, want) {
					t.Errorf("ptxml %v: output differs from golden bytes", args)
				}
			}
		})
	}
}

// TestGoldenStatsLine pins the machine-readable -stats contract,
// including the query-memo counters.
func TestGoldenStatsLine(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "specs")
	if _, err := os.Stat(filepath.Join(dir, "tau1.pt")); err != nil {
		t.Skip("tau1.pt not present")
	}
	var out, errBuf bytes.Buffer
	code := run([]string{
		"-spec", filepath.Join(dir, "tau1.pt"),
		"-data", filepath.Join(dir, "registrar.db"),
		"-stats", "-cache", "query", "-max-nodes", "0",
	}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	for _, field := range []string{"class=", "nodes=", "depth=", "queries=", "stops=",
		"cache=query", "hits=", "misses=", "evictions=", "elapsed="} {
		if !bytes.Contains(errBuf.Bytes(), []byte(field)) {
			t.Errorf("stats line missing %q: %s", field, errBuf.String())
		}
	}
}

// TestCacheFlagValidation: a bogus -cache value is a usage error, and
// so are the removed spellings -cache subtree, -workers and -max.
func TestCacheFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-cache", "bogus"},
		{"-cache", "subtree"},
		{"-workers", "4"},
		{"-max", "5"},
	} {
		var out, errBuf bytes.Buffer
		if code := run(append([]string{"-spec", "x", "-data", "y"}, args...), &out, &errBuf); code != 2 {
			t.Fatalf("%v: exit %d, want 2 (stderr: %s)", args, code, errBuf.String())
		}
	}
}
