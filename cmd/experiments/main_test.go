package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSolverSection runs the solver section through the CLI and checks the
// runtime summary lands on stdout.
func TestRunSolverSection(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "solver"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Solver runtime across Tables 5-6 instances") {
		t.Errorf("solver summary missing:\n%s", stdout.String())
	}
}

// TestRunTableSection smoke-tests one deterministic table section end to end.
func TestRunTableSection(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "table5"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Table 5: threshold sweep") {
		t.Errorf("table 5 output missing:\n%s", stdout.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag: exit %d", code)
	}
}
