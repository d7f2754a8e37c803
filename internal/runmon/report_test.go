package runmon

import (
	"bytes"
	"strings"
	"testing"

	"insitu/internal/obs"
)

// driftedSnapshot replays a synthetic perturbed run and returns its report.
func driftedSnapshot(t *testing.T) Snapshot {
	t.Helper()
	run := SynthRun{
		Name: "unit", App: "mdsim/unit", Steps: 60,
		SimSec: 0.010, ThresholdSec: 0.5, NoiseFrac: 0.02,
		Kind: PerturbSimTime, ChangeStep: 30, Factor: 1.5,
		Kernels: []SynthKernel{
			{Name: "rdf", AnalyzeSec: 0.004, OutputSec: 0.001, Every: 2, OutputEvery: 4, Bytes: 1 << 20},
		},
	}
	return Analyze(run.Events(), nil, Config{})
}

func TestAnalyzeReplaysSynthRun(t *testing.T) {
	s := driftedSnapshot(t)
	if !s.Ended || s.Step != 60 || s.Steps != 60 {
		t.Fatalf("snapshot header = %+v", s)
	}
	if s.DriftCount() != 1 {
		t.Fatalf("drift alerts = %d, want 1 (sim stream only)", s.DriftCount())
	}
	a := s.Alerts[0]
	if a.Stream != StreamSim || a.Step < 30 || a.Step > 35 {
		t.Fatalf("alert = %+v, want sim drift within 5 steps of 30", a)
	}
	if got := s.Summary(); !strings.Contains(got, "1 drift alert") {
		t.Fatalf("summary = %q", got)
	}
}

func TestWriteTextReport(t *testing.T) {
	var buf bytes.Buffer
	s := driftedSnapshot(t)
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"run: mdsim/unit", "step 60/60", "ended",
		StreamSim, "rdf/analyze", "rdf/output",
		"DRIFT@", "budget:", "alerts: 1", "[drift]", "slow by",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTextEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := (Snapshot{}).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no monitored events yet") {
		t.Fatalf("empty report = %q", buf.String())
	}
}

func TestWriteHTMLReport(t *testing.T) {
	var buf bytes.Buffer
	s := driftedSnapshot(t)
	if err := s.WriteHTML(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "Run drift report", "mdsim/unit",
		"Residual streams", "rdf/analyze", `class="alert"`,
		"drift at step",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("HTML missing %q", want)
		}
	}
}

// TestAnalyzeCollectsSolves: solve events ride into the snapshot in ledger
// order, and the text report prints one row per solve after the alerts.
func TestAnalyzeCollectsSolves(t *testing.T) {
	events := []obs.LedgerEvent{
		{Type: obs.LedgerRunStart, Name: "mdsim"},
		{Type: obs.LedgerSolve, Name: "plan", Dur: 99, Args: map[string]float64{"nodes": 5, "pivots": 40, "objective": 12}},
		{Type: obs.LedgerStep, Step: 1, Dur: 100},
		{Type: obs.LedgerAnalysis, Name: "rdf", Step: 1, Dur: 30},
		{Type: obs.LedgerStep, Step: 2, Dur: 110},
		{Type: obs.LedgerSolve, Name: "replan", Dur: 7, Args: map[string]float64{"nodes": 1, "pivots": 9, "objective": 11}},
		{Type: obs.LedgerRunEnd},
	}
	s := Analyze(events, nil, Config{})
	if s.App != "mdsim" || s.Runs != 1 || s.Step != 2 || !s.Ended {
		t.Fatalf("snapshot header = %+v", s)
	}
	if len(s.Solves) != 2 || s.Solves[0].Name != "plan" || s.Solves[1].Args["pivots"] != 9 {
		t.Fatalf("solves = %+v", s.Solves)
	}
	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	alerts, plan, replan := strings.Index(out, "alerts: none"), strings.Index(out, "solve plan"), strings.Index(out, "solve replan")
	if alerts < 0 || plan < alerts || replan < plan || !strings.Contains(out, "objective=12 (99 us)") {
		t.Fatalf("solve rows missing or out of order:\n%s", out)
	}
}

func TestSynthRunControlIsQuiet(t *testing.T) {
	run := SynthRun{
		Name: "control", App: "mdsim/control", Steps: 80,
		SimSec: 0.010, ThresholdSec: 1.0, NoiseFrac: 0.02,
		Kind: PerturbNone,
		Kernels: []SynthKernel{
			{Name: "rdf", AnalyzeSec: 0.004, OutputSec: 0.001, Every: 2, OutputEvery: 4},
		},
	}
	if s := Analyze(run.Events(), nil, Config{}); len(s.Alerts) != 0 {
		t.Fatalf("control run raised %+v", s.Alerts)
	}
}
