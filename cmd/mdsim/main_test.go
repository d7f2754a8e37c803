package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"insitu/internal/obs"
	"insitu/internal/runmon"
)

func TestBuildSystem(t *testing.T) {
	if _, kernels, err := buildSystem("water", 500, 2); err != nil || len(kernels) != 6 {
		t.Fatalf("water: %d kernels, %v", len(kernels), err)
	}
	if _, _, err := buildSystem("nope", 500, 2); err == nil {
		t.Fatal("expected error for unknown system")
	}
}

// mdsim runs the CLI in-process and fails the test on a non-zero exit.
func mdsim(t *testing.T, args ...string) string {
	t.Helper()
	var out, errBuf bytes.Buffer
	if code := run(args, &out, &errBuf); code != 0 {
		t.Fatalf("mdsim %v -> %d: %s", args, code, errBuf.String())
	}
	return out.String()
}

// TestPerturbSimRejectedBeforeAnyStep pins that a bad -perturb-sim is a usage
// error raised before the planning phase. The unknown -system proves it: a
// run that got as far as building the system, let alone stepping it, would
// report that instead (exit 1) and print the planning banner.
func TestPerturbSimRejectedBeforeAnyStep(t *testing.T) {
	for name, arg := range map[string]string{
		"bad factor": "0.5@3",
		"bad step":   "1.5@0",
		"malformed":  "fast",
	} {
		var out, errBuf bytes.Buffer
		code := run([]string{"-system", "nope", "-perturb-sim", arg}, &out, &errBuf)
		if code != 2 || !strings.Contains(errBuf.String(), "bad -perturb-sim") {
			t.Errorf("%s (%q): exit %d, stderr %q", name, arg, code, errBuf.String())
		}
		if out.Len() != 0 {
			t.Errorf("%s (%q): printed %q before rejecting the flag", name, arg, out.String())
		}
	}
}

// chromeEvent mirrors the trace_event JSON schema the -trace flag emits.
// Args is loosely typed: span args are numeric, metadata args are strings.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TID   int            `json:"tid"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	Args  map[string]any `json:"args"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

func TestRunWritesValidChromeTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline too heavy for -short")
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.txt")
	ledgerPath := filepath.Join(dir, "run.jsonl")
	mdsim(t, "-atoms", "600", "-steps", "20", "-threshold-pct", "20", "-interval", "5", "-ranks", "2",
		"-trace", tracePath, "-metrics", metricsPath, "-ledger", ledgerPath)

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("trace file is not valid Chrome trace JSON: %v", err)
	}
	var steps, kernels []chromeEvent
	for _, e := range tr.TraceEvents {
		if e.Phase != "X" {
			continue
		}
		switch {
		case e.Name == "step" && e.Cat == "sim":
			steps = append(steps, e)
		case e.Cat == "kernel" && !strings.HasSuffix(e.Name, "/setup"):
			kernels = append(kernels, e)
		}
	}
	if len(steps) != 20 {
		t.Fatalf("step spans = %d, want 20", len(steps))
	}
	if len(kernels) == 0 {
		t.Fatal("no kernel spans recorded")
	}
	// Every kernel invocation span must nest inside exactly one step span.
	for _, k := range kernels {
		hits := 0
		for _, s := range steps {
			if s.TID == k.TID && s.TS <= k.TS && k.TS+k.Dur <= s.TS+s.Dur {
				hits++
			}
		}
		if hits != 1 {
			t.Errorf("kernel span %q at ts=%v nests in %d step spans, want 1", k.Name, k.TS, hits)
		}
	}

	metrics, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	text := string(metrics)
	if !strings.Contains(text, "coupling_steps_total 20") {
		t.Errorf("metrics file missing step counter:\n%s", text)
	}
	if !strings.Contains(text, "# TYPE coupling_step_seconds histogram") {
		t.Errorf("metrics file missing step-duration histogram:\n%s", text)
	}

	events, err := obs.ReadLedgerFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	sum := runmon.Analyze(events, nil, runmon.Config{})
	if sum.App != "mdsim/water" || sum.Step != 20 {
		t.Fatalf("ledger app=%q steps=%d, want mdsim/water with 20 steps", sum.App, sum.Step)
	}
	if len(sum.Solves) != 1 || sum.Solves[0].Name != "plan" {
		t.Fatalf("ledger solves = %+v", sum.Solves)
	}
}

func TestRunMonitoredLedgerSelfDescribes(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline too heavy for -short")
	}
	ledgerPath := filepath.Join(t.TempDir(), "run.jsonl")
	mdsim(t, "-atoms", "600", "-steps", "20", "-threshold-pct", "20", "-interval", "5", "-ranks", "2",
		"-monitor", "-ledger", ledgerPath)
	events, err := obs.ReadLedgerFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	// The monitored ledger carries its own predictions as plan events, and
	// a post-hoc runmon pass over the file scores the full run.
	profile := runmon.FromEvents(events)
	if profile == nil || len(profile.Streams) == 0 {
		t.Fatalf("no plan events in monitored ledger: %+v", profile)
	}
	s := runmon.Analyze(events, nil, runmon.Config{})
	if s.Step != 20 || !s.Ended {
		t.Fatalf("post-hoc snapshot = %+v", s)
	}
	if len(s.Streams) == 0 {
		t.Fatal("post-hoc analysis tracked no streams")
	}
}

// TestReplanRunLedgerOrder drives a -monitor -replan -ledger run and checks
// the campaign path wrote the ledger in pipeline order: the plan's solve
// event, then the plan events carrying its predictions, then the run.
func TestReplanRunLedgerOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline too heavy for -short")
	}
	ledgerPath := filepath.Join(t.TempDir(), "run.jsonl")
	text := mdsim(t, "-atoms", "600", "-steps", "20", "-threshold-pct", "20", "-interval", "5", "-ranks", "2",
		"-monitor", "-replan", "-ledger", ledgerPath)
	for _, want := range []string{"recommended schedule:", "executed: sim=", "run monitor:", "replan: "} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	events, err := obs.ReadLedgerFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	solves, plans := 0, 0
	for _, e := range events {
		if e.Type == obs.LedgerRunStart {
			break
		}
		switch {
		case e.Type == obs.LedgerSolve && plans == 0:
			solves++
		case e.Type == obs.LedgerPlan:
			plans++
		default:
			t.Fatalf("unexpected %q event before run_start (after %d solve, %d plan)", e.Type, solves, plans)
		}
	}
	if solves != 1 || plans == 0 {
		t.Fatalf("%d solve and %d plan events before run_start, want 1 and some", solves, plans)
	}
	if events[0].Name != "plan" || events[len(events)-1].Type != obs.LedgerRunEnd {
		t.Fatalf("ledger opens with solve %q and ends with %q", events[0].Name, events[len(events)-1].Type)
	}
}
