package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the tests re-run this binary as the wakeup command itself:
// with WAKEUP_RUN_MAIN=1 set, the process is main() with the given flags.
func TestMain(m *testing.M) {
	if os.Getenv("WAKEUP_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runWakeup runs the command with args and returns its exit status and
// standard error.
func runWakeup(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "WAKEUP_RUN_MAIN=1")
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
	t.Fatalf("wakeup %v: %v", args, err)
	return 0, ""
}

// TestBadGraphSpecExitsTwo pins the CLI contract for out-of-range graph
// specs: exit status 2 and a single-line error, never a generator panic
// (whose goroutine dump would span many lines) and never a hang.
func TestBadGraphSpecExitsTwo(t *testing.T) {
	for _, spec := range []string{
		"torus:0x5", "gnp:-5:0.1", "hypercube:40", "grid:100000x100000",
		"complete:200000", "gnp:100000:2", "gnp:100:-0.5",
	} {
		code, stderr := runWakeup(t, "-graph", spec)
		if code != 2 {
			t.Errorf("-graph %s: exit status %d, want 2 (stderr %q)", spec, code, stderr)
		}
		if lines := strings.Count(stderr, "\n"); lines != 1 || !strings.HasPrefix(stderr, "wakeup: ") {
			t.Errorf("-graph %s: want one \"wakeup: ...\" error line, got %d lines: %q", spec, lines, stderr)
		}
	}
}

// TestGoodGraphSpecRuns is the control: a valid spec runs to completion.
func TestGoodGraphSpecRuns(t *testing.T) {
	if code, stderr := runWakeup(t, "-graph", "torus:3x5"); code != 0 {
		t.Fatalf("-graph torus:3x5: exit status %d, stderr %q", code, stderr)
	}
}

// TestBadScheduleSpecExitsTwo pins the same contract for wake schedules:
// a non-finite or negative gap or window is a usage error, never a run
// with NaN or infinite wake times.
func TestBadScheduleSpecExitsTwo(t *testing.T) {
	for _, spec := range []string{
		"staggered:1,1:NaN", "staggered:1,1:Inf", "staggered:1,1:-2",
		"random:2:NaN", "random:2:-Inf", "random:2:-1",
	} {
		for _, alg := range []string{"flood", "fast-wakeup"} {
			code, stderr := runWakeup(t, "-graph", "path:10", "-alg", alg, "-awake", spec)
			if code != 2 {
				t.Errorf("-alg %s -awake %s: exit status %d, want 2 (stderr %q)", alg, spec, code, stderr)
			}
			if lines := strings.Count(stderr, "\n"); lines != 1 || !strings.HasPrefix(stderr, "wakeup: ") {
				t.Errorf("-alg %s -awake %s: want one \"wakeup: ...\" error line, got %d lines: %q", alg, spec, lines, stderr)
			}
		}
	}
}
