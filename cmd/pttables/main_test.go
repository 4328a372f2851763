package main

import (
	"bytes"
	"strings"
	"testing"
)

// Exit-code tests for the regeneration harness: 0 success, 2 usage,
// 4 budget/deadline. Blocks share package-level streams, so these tests
// must not run in parallel.

func TestUsageExitCode(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run(nil, &out, &errBuf); code != 2 {
		t.Fatalf("no flags: exit %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), "fig1") {
		t.Errorf("usage should list the blocks: %s", errBuf.String())
	}
}

func TestFig1ExitCode(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-fig1"}, &out, &errBuf); code != 0 {
		t.Fatalf("-fig1: exit %d (stderr: %s)", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "Figure 1") {
		t.Errorf("expected the Figure 1 header: %s", out.String())
	}
}

// TestTimeoutExitCode pins the deadline path: an expired context aborts
// the block with the typed cancellation error and exit 4.
func TestTimeoutExitCode(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-fig1", "-timeout", "1ns"}, &out, &errBuf); code != 4 {
		t.Fatalf("-timeout 1ns: exit %d, want 4 (stderr: %s)", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "aborted") {
		t.Errorf("stderr should diagnose the abort: %s", errBuf.String())
	}
}

// TestTimeoutNotRetried: an expired parent context is not worth
// retrying — the supervision loop must stop immediately rather than
// burning the retry budget on a dead deadline.
func TestTimeoutNotRetried(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-fig1", "-timeout", "1ns", "-retries", "3", "-backoff", "1ms"}, &out, &errBuf); code != 4 {
		t.Fatalf("exit %d, want 4 (stderr: %s)", code, errBuf.String())
	}
	if strings.Contains(errBuf.String(), "attempt 2") {
		t.Errorf("dead deadline should not be retried repeatedly: %s", errBuf.String())
	}
	if strings.Contains(errBuf.String(), "retrying") {
		t.Errorf("a retry was announced for a dead deadline: %s", errBuf.String())
	}
}
