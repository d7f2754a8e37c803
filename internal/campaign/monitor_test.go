package campaign

import (
	"path/filepath"
	"testing"

	"insitu/internal/obs"
	"insitu/internal/runmon"
)

// TestCampaignMonitorWiring attaches a live runmon.Monitor to a small coupled
// campaign: Execute must install the solved plan as the monitor's profile,
// write the plan events into the ledger, and stream every run event through
// the monitor.
func TestCampaignMonitorWiring(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	led, err := obs.OpenEventLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	mon := runmon.NewMonitor(nil, runmon.Config{})
	c := mdCampaign(t, 20, func(cfg *Config) {
		cfg.Ledger = led
		cfg.Monitor = mon
	})
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	// The monitor saw the whole run live.
	s := mon.Snapshot()
	if !s.Ended || s.Step != out.Report.Steps {
		t.Fatalf("monitor snapshot = step %d ended %v, report ran %d steps", s.Step, s.Ended, out.Report.Steps)
	}
	if s.App != "water+ions" {
		t.Fatalf("monitor app = %q", s.App)
	}
	if len(s.Streams) == 0 {
		t.Fatal("monitor tracked no streams")
	}
	// The installed profile carries the solved plan's envelope, so the sim
	// stream is predicted (not self-calibrating) from the first step.
	for _, st := range s.Streams {
		if st.Stream == runmon.StreamSim && st.PredictedSec <= 0 {
			t.Fatalf("sim stream still calibrating: %+v", st)
		}
	}
	if s.Steps != out.Plan.Resources.Steps || s.ThresholdSec != out.Plan.Resources.TimeThreshold {
		t.Fatalf("profile envelope = steps %d threshold %g, plan %d/%g",
			s.Steps, s.ThresholdSec, out.Plan.Resources.Steps, out.Plan.Resources.TimeThreshold)
	}

	// The ledger self-describes the same predictions via plan events.
	events, err := obs.ReadLedgerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	profile := runmon.FromEvents(events)
	if profile == nil {
		t.Fatal("ledger carries no plan events")
	}
	if profile.ThresholdSec != out.Plan.Resources.TimeThreshold {
		t.Fatalf("ledger plan threshold = %g, want %g", profile.ThresholdSec, out.Plan.Resources.TimeThreshold)
	}
	// Post-hoc analysis of the file reaches the same verdict as the live
	// monitor (same predictions, same events).
	post := runmon.Analyze(events, nil, runmon.Config{})
	if post.DriftCount() != s.DriftCount() || post.Step != s.Step {
		t.Fatalf("post-hoc %+v disagrees with live %+v", post.Summary(), s.Summary())
	}
}
