package campaign

import (
	"path/filepath"
	"testing"

	"insitu/internal/obs"
	"insitu/internal/runmon"
)

// TestCampaignLedgerRoundTrip runs a small coupled campaign with a JSONL run
// ledger attached, reads the file back, and checks that the replayed run
// matches the executed report: the acceptance path for the runmon-report
// workflow.
func TestCampaignLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	led, err := obs.OpenEventLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := mdCampaign(t, 20, func(cfg *Config) { cfg.Ledger = led })
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := obs.ReadLedgerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := runmon.Analyze(events, nil, runmon.Config{})
	if sum.App != "water+ions" || sum.Runs != 1 {
		t.Fatalf("app=%q runs=%d", sum.App, sum.Runs)
	}
	if len(sum.Solves) != 1 {
		t.Fatalf("solves = %d, want 1", len(sum.Solves))
	}
	solve := sum.Solves[0]
	if solve.Name != "plan" || solve.Args["objective"] != out.Plan.Rec.Objective {
		t.Fatalf("solve event = %+v, plan objective %g", solve, out.Plan.Rec.Objective)
	}
	if solve.Args["threshold"] != out.Plan.Resources.TimeThreshold {
		t.Fatalf("solve threshold = %g, want %g", solve.Args["threshold"], out.Plan.Resources.TimeThreshold)
	}
	if sum.Step != out.Report.Steps {
		t.Fatalf("ledger reaches step %d, report ran %d", sum.Step, out.Report.Steps)
	}
	var sim runmon.StreamSnapshot
	for _, st := range sum.Streams {
		if st.Stream == runmon.StreamSim {
			sim = st
		}
	}
	if sim.Count != out.Report.Steps || sim.MeanSec <= 0 {
		t.Fatalf("no step time recorded: %+v", sim)
	}

	// Per-kernel analysis/output invocations and output volume must agree
	// with the coupling report exactly.
	analyses := map[string]int{}
	outputs := map[string]int{}
	var bytes int64
	for _, e := range events {
		switch e.Type {
		case obs.LedgerAnalysis:
			analyses[e.Name]++
		case obs.LedgerOutput:
			outputs[e.Name]++
			bytes += e.Bytes
		}
	}
	for _, kr := range out.Report.Kernels {
		if analyses[kr.Name] != kr.Analyses {
			t.Fatalf("%s: ledger has %d analyses, report %d", kr.Name, analyses[kr.Name], kr.Analyses)
		}
		if outputs[kr.Name] != kr.Outputs {
			t.Fatalf("%s: ledger has %d outputs, report %d", kr.Name, outputs[kr.Name], kr.Outputs)
		}
		bytes -= kr.OutBytes
	}
	if bytes != 0 {
		t.Fatalf("ledger output bytes off by %d", bytes)
	}

	// run_start/run_end bracket the run.
	if events[0].Type != obs.LedgerSolve && events[0].Type != obs.LedgerRunStart {
		t.Fatalf("first event = %+v", events[0])
	}
	last := events[len(events)-1]
	if last.Type != obs.LedgerRunEnd || last.Args["sim_seconds"] <= 0 {
		t.Fatalf("last event = %+v", last)
	}
}
