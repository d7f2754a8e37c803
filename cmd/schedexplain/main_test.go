package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"insitu/internal/milp"
	"insitu/internal/obs"
)

// problemJSON is a two-analysis scenario: "light" fits the budget ten times,
// "heavy" cannot fit at all (30 s per step against a 5 s threshold), so the
// report exercises both the binding and the infeasible-counterfactual paths.
const problemJSON = `{
  "resources": {"steps": 1000, "time_threshold_sec": 5,
    "mem_threshold_bytes": 1073741824},
  "analyses": [
    {"name": "light", "ct_sec": 0.065, "ot_sec": 0.005, "fm_bytes": 1024, "min_interval": 100},
    {"name": "heavy", "ct_sec": 30, "ot_sec": 0.5, "fm_bytes": 2048, "min_interval": 100}
  ]
}`

func writeScenario(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "problem.json")
	if err := os.WriteFile(path, []byte(problemJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunTerminalReport(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{writeScenario(t)}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"== schedule ==", "== attribution ==", "== search ==",
		"light", "heavy", "binding=", "infeasible", "time-threshold",
		"conflict: {time-threshold, force[heavy]}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRunArtifacts(t *testing.T) {
	dir := t.TempDir()
	htmlPath := filepath.Join(dir, "report.html")
	treePath := filepath.Join(dir, "tree.json")
	dotPath := filepath.Join(dir, "tree.dot")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-html", htmlPath, "-tree", treePath, "-dot", dotPath, writeScenario(t)}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}

	html, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(html), "<!DOCTYPE html>") || !strings.Contains(string(html), "heavy") {
		t.Errorf("html report incomplete")
	}

	tf, err := os.Open(treePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	tree, err := milp.ReadTree(tf)
	if err != nil {
		t.Fatalf("tree export does not round-trip: %v", err)
	}
	if len(tree.Nodes) == 0 {
		t.Error("tree export has no nodes")
	}

	dot, err := os.ReadFile(dotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dot), "digraph bnb") {
		t.Errorf("dot export = %q", dot)
	}
}

func TestRunLedgerAlignment(t *testing.T) {
	dir := t.TempDir()
	ledgerPath := filepath.Join(dir, "run.jsonl")
	log, err := obs.OpenEventLog(ledgerPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	log.Append(obs.LedgerEvent{Type: obs.LedgerRunStart, Name: "mini", TS: 1})
	log.Append(obs.LedgerEvent{Type: obs.LedgerStep, Step: 100, Dur: 500, TS: 2})
	log.Append(obs.LedgerEvent{Type: obs.LedgerAnalysis, Name: "light", Step: 100, Dur: 65000, TS: 3})
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-ledger", ledgerPath, writeScenario(t)}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "planned vs executed") {
		t.Errorf("ledger section missing:\n%s", stdout.String())
	}
}

func TestRunErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("no args: exit %d", code)
	}
	if code := run([]string{filepath.Join(t.TempDir(), "missing.json")}, &stdout, &stderr); code != 1 {
		t.Fatalf("missing file: exit %d", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{bad}, &stdout, &stderr); code != 1 {
		t.Fatalf("bad json: exit %d", code)
	}
	// Empty ledger must fail with a one-line error, not render a bogus table.
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := run([]string{"-ledger", empty, writeScenario(t)}, &stdout, &stderr); code != 1 {
		t.Fatalf("empty ledger: exit %d", code)
	}
	if !strings.Contains(stderr.String(), "no events") {
		t.Fatalf("stderr = %q", stderr.String())
	}
}
