package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the tests re-run this binary as the sweep command itself:
// with SWEEP_RUN_MAIN=1 set, the process is main() with the given flags.
func TestMain(m *testing.M) {
	if os.Getenv("SWEEP_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSweep runs the command with args and returns its exit status and
// standard error.
func runSweep(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SWEEP_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatalf("sweep %v: %v", args, err)
	return 0, ""
}

// TestBadMatrixExitsTwo pins the CLI contract for a matrix that cannot be
// swept: exit status 2 and a single "sweep: ..." line, never a panic from
// an empty or malformed matrix reaching the fit and plot stages.
func TestBadMatrixExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-seeds", "0", "-sizes", "10"},
		{"-seeds", "-1", "-sizes", "10"},
		{"-sizes", "0"},
		{"-sizes", "-5"},
		{"-graph", "binary", "-sizes", "10"},
	} {
		code, stderr := runSweep(t, args...)
		if code != 2 {
			t.Errorf("%v: exit status %d, want 2 (stderr %q)", args, code, stderr)
		}
		if lines := strings.Count(stderr, "\n"); lines != 1 || !strings.HasPrefix(stderr, "sweep: ") {
			t.Errorf("%v: want one \"sweep: ...\" error line, got %d lines: %q", args, lines, stderr)
		}
		if strings.Contains(stderr, "panic") || strings.Contains(stderr, "goroutine") {
			t.Errorf("%v: stderr reports a crash: %q", args, stderr)
		}
	}
}

// TestGoodMatrixRuns is the control: a valid one-cell matrix runs to
// completion.
func TestGoodMatrixRuns(t *testing.T) {
	if code, stderr := runSweep(t, "-sizes", "64", "-seeds", "1"); code != 0 {
		t.Fatalf("-sizes 64 -seeds 1: exit status %d, stderr %q", code, stderr)
	}
}
