package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"insitu/internal/core"
	"insitu/internal/obs"
	"insitu/internal/runmon"
)

func writeProblem(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "p.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadProblem(t *testing.T) {
	path := writeProblem(t, `{
	  "resources": {
	    "steps": 1000,
	    "time_threshold_sec": 64.69,
	    "mem_threshold_bytes": 1073741824,
	    "bandwidth_bytes_per_sec": 4500000000
	  },
	  "analyses": [
	    {"name": "A1", "ct_sec": 0.065, "ot_sec": 0.005, "fm_bytes": 1024,
	     "min_interval": 100, "weight": 2},
	    {"name": "A4", "ct_sec": 25.85, "im_bytes": 64, "om_bytes": 4096,
	     "min_interval": 100}
	  ]
	}`)
	specs, res, err := loadProblem(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("specs = %d", len(specs))
	}
	if specs[0].Name != "A1" || specs[0].CT != 0.065 || specs[0].Weight != 2 || specs[0].FM != 1024 {
		t.Fatalf("spec A1 = %+v", specs[0])
	}
	if specs[1].IM != 64 || specs[1].OM != 4096 || specs[1].MinInterval != 100 {
		t.Fatalf("spec A4 = %+v", specs[1])
	}
	if res.Steps != 1000 || res.TimeThreshold != 64.69 || res.MemThreshold != 1<<30 || res.Bandwidth != 4.5e9 {
		t.Fatalf("resources = %+v", res)
	}
	// The loaded problem must actually solve.
	rec, err := core.Solve(specs, res, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Schedule("A1").Count != 10 {
		t.Fatalf("A1 count = %d", rec.Schedule("A1").Count)
	}
}

func TestWriteExplainReport(t *testing.T) {
	path := writeProblem(t, `{
	  "resources": {"steps": 1000, "time_threshold_sec": 5},
	  "analyses": [
	    {"name": "light", "ct_sec": 0.065, "ot_sec": 0.005, "min_interval": 100},
	    {"name": "heavy", "ct_sec": 30, "min_interval": 100}
	  ]
	}`)
	specs, res, err := loadProblem(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := writeExplainReport(&buf, specs, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== attribution ==", "light", "heavy", "binding=", "infeasible"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain report missing %q:\n%s", want, out)
		}
	}
}

func TestLoadProblemErrors(t *testing.T) {
	if _, _, err := loadProblem(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("expected read error")
	}
	path := writeProblem(t, `{not json`)
	if _, _, err := loadProblem(path); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestRunUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("no args: exit %d", code)
	}
	if code := run([]string{filepath.Join(t.TempDir(), "missing.json")}, &stdout, &stderr); code != 1 {
		t.Fatalf("missing file: exit %d", code)
	}
}

func TestRunMonitorFlag(t *testing.T) {
	problem := writeProblem(t, `{
	  "resources": {
	    "steps": 40,
	    "time_threshold_sec": 1.0,
	    "mem_threshold_bytes": 1073741824,
	    "bandwidth_bytes_per_sec": 4500000000
	  },
	  "analyses": [
	    {"name": "rdf", "ct_sec": 0.004, "ot_sec": 0.001, "min_interval": 2}
	  ]
	}`)

	// Synthesize the executed run: the rdf analysis drifts to 3x its
	// profiled cost halfway through.
	ledgerPath := filepath.Join(t.TempDir(), "run.jsonl")
	srun := runmon.SynthRun{
		Name: "cli", App: "mdsim/cli", Steps: 40,
		SimSec: 0.010, ThresholdSec: 1.0, NoiseFrac: 0.02,
		Kind: runmon.PerturbAnalysisCT, ChangeStep: 20, Factor: 3,
		Kernels: []runmon.SynthKernel{
			{Name: "rdf", AnalyzeSec: 0.004, OutputSec: 0.001, Every: 2, OutputEvery: 4},
		},
	}
	led, err := obs.OpenEventLog(ledgerPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range srun.Events() {
		led.Append(e)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-monitor", ledgerPath, problem}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"run monitor", "rdf/analyze", "DRIFT@", "alerts:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("monitor report missing %q:\n%s", want, out)
		}
	}
}
