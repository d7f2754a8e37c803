package campaign

import (
	"testing"
	"time"

	"insitu/internal/analysis"
	"insitu/internal/analysis/mdkernels"
	"insitu/internal/replan"
	"insitu/internal/runmon"
	"insitu/internal/sim/md"
)

// TestCampaignReplanWiring closes the loop end to end through the campaign
// front door: the simulation is profiled at one speed, then slows 3x for the
// production run, so the live monitor must raise drift and the replanner must
// record at least one decision — all without the caller attaching a monitor
// explicitly. Wall-clock timing keeps the adopted-vs-kept outcome
// machine-dependent, so the test asserts the wiring (decisions recorded,
// consistent records, run completes), not a particular decision.
func TestCampaignReplanWiring(t *testing.T) {
	sys, err := md.NewWaterIons(md.Config{NAtoms: 800, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rdf, err := mdkernels.NewHydroniumRDF(sys, mdkernels.RDFConfig{Bins: 32, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	msd, err := mdkernels.NewMSD(sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	var drag time.Duration
	cfg := Config{
		Sim: SimFunc{
			AppName: "water+ions",
			StepFn: func() {
				sys.Step(0.002)
				time.Sleep(drag)
			},
			MemBytes: sys.MemoryBytes(),
		},
		Kernels:          []analysis.Kernel{rdf, msd},
		Steps:            30,
		MinInterval:      3,
		ThresholdPercent: 20,
		Replan:           &replan.Config{Cooldown: 3},
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Plan()
	if err != nil {
		t.Fatal(err)
	}
	// The truth the profile missed: every production step drags by twice
	// the profiled step time, whatever that is on this machine or under the
	// race detector.
	drag = time.Duration(2 * p.SimSecPerStep * float64(time.Second))
	out, err := c.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Report.Steps != 30 {
		t.Fatalf("run ended at %d steps", out.Report.Steps)
	}
	if len(out.Replans) == 0 {
		t.Fatal("a 3x-slowed run produced no replan decisions")
	}
	for _, r := range out.Replans {
		if r.Reason == "" || r.Step <= 0 {
			t.Fatalf("malformed replan record: %+v", r)
		}
		if r.Trigger != runmon.AlertDrift && r.Trigger != runmon.AlertBudget {
			t.Fatalf("replan record with unknown trigger: %+v", r)
		}
	}
}
