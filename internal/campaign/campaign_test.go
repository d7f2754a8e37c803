package campaign

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"insitu/internal/analysis"
	"insitu/internal/analysis/amrkernels"
	"insitu/internal/analysis/mdkernels"
	"insitu/internal/obs"
	"insitu/internal/sim/amr"
	"insitu/internal/sim/md"
)

func mdCampaign(t *testing.T, pct float64, mutate ...func(*Config)) *Campaign {
	t.Helper()
	sys, err := md.NewWaterIons(md.Config{NAtoms: 1500, Seed: 21})
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
	cfg := Config{
		Sim: SimFunc{
			AppName:  "water+ions",
			StepFn:   func() { sys.Step(0.002) },
			MemBytes: sys.MemoryBytes(),
		},
		Kernels:          []analysis.Kernel{rdf, msd},
		Steps:            40,
		MinInterval:      5,
		ThresholdPercent: pct,
	}
	for _, m := range mutate {
		m(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCampaignEndToEndMD(t *testing.T) {
	c := mdCampaign(t, 20)
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Plan.Rec.TotalAnalyses() == 0 {
		t.Fatal("nothing scheduled")
	}
	for _, kr := range out.Report.Kernels {
		s := out.Plan.Rec.Schedule(kr.Name)
		if kr.Analyses != s.Count || kr.Outputs != s.Outputs {
			t.Fatalf("%s: executed %d analyses and %d outputs, scheduled %d and %d",
				kr.Name, kr.Analyses, kr.Outputs, s.Count, s.Outputs)
		}
	}
	if out.Report.SimTime <= 0 || out.Plan.Specs[0].CT <= 0 {
		t.Fatalf("nothing measured: sim %v, specs %+v", out.Report.SimTime, out.Plan.Specs)
	}
	sum := out.Summary()
	for _, want := range []string{"plan (", "executed:", "A1 hydronium rdf"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestCampaignEndToEndAMR(t *testing.T) {
	grid, err := amr.NewSedov(amr.Config{BlocksX: 2, NB: 6})
	if err != nil {
		t.Fatal(err)
	}
	f3, err := amrkernels.NewL2Norm(grid, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	c, err := New(Config{
		Sim: SimFunc{
			AppName:  "sedov",
			StepFn:   func() { grid.StepCFL() },
			MemBytes: grid.MemoryBytes(),
		},
		Kernels:     []analysis.Kernel{f3},
		Steps:       20,
		MinInterval: 4,
		// A budget of 100x the simulation time: every allowed analysis fits.
		ThresholdPercent: 1e4,
		Output:           &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := out.Plan.Rec.Schedule("F3 L2 error norm")
	if s.Count != 5 {
		t.Fatalf("F3 count = %d, want 5 (20 steps / itv 4)", s.Count)
	}
	if buf.Len() == 0 {
		t.Fatal("analysis output not captured")
	}
	if !out.WithinThreshold {
		t.Fatalf("cheap kernel blew a budget of 100x the simulation time: %v", out.Report.AnalysisTime)
	}
}

func TestCampaignWeights(t *testing.T) {
	c := mdCampaign(t, 20)
	c.cfg.Weights = map[string]float64{"A4 msd": 3}
	p, err := c.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range p.Specs {
		if s.Name == "A4 msd" && s.Weight != 3 {
			t.Fatalf("weight not applied: %+v", s)
		}
	}
}

func TestCampaignValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("expected simulation error")
	}
	sim := SimFunc{AppName: "x", StepFn: func() {}}
	if _, err := New(Config{Sim: sim}); err == nil {
		t.Fatal("expected kernel error")
	}
	k := dummyKernel{}
	if _, err := New(Config{Sim: sim, Kernels: []analysis.Kernel{k}}); err == nil {
		t.Fatal("expected steps error")
	}
	if _, err := New(Config{Sim: sim, Kernels: []analysis.Kernel{k}, Steps: 10}); err == nil {
		t.Fatal("expected threshold error")
	}
}

type dummyKernel struct{}

func (dummyKernel) Name() string                    { return "dummy" }
func (dummyKernel) Setup() (int64, error)           { return 0, nil }
func (dummyKernel) PreStep(int) (int64, error)      { return 0, nil }
func (dummyKernel) Analyze(int) (int64, error)      { return 0, nil }
func (dummyKernel) Output(io.Writer) (int64, error) { return 0, nil }
func (dummyKernel) Free()                           {}

func TestCampaignInstrumented(t *testing.T) {
	c := mdCampaign(t, 20)
	c.cfg.Trace = obs.NewTracer()
	c.cfg.Metrics = obs.NewRegistry()
	out, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Metrics) == 0 {
		t.Fatal("instrumented campaign produced no metrics snapshot")
	}
	var steps float64
	for _, m := range out.Metrics {
		if m.Name == "coupling_steps_total" {
			steps = m.Value
		}
	}
	if steps != 40 {
		t.Errorf("coupling_steps_total = %v, want 40", steps)
	}
	if c.cfg.Trace.Len() == 0 {
		t.Error("instrumented campaign recorded no trace events")
	}
	sum := out.Summary()
	if !strings.Contains(sum, "metrics:") || !strings.Contains(sum, "coupling_steps_total 40") {
		t.Errorf("summary missing metrics section:\n%s", sum)
	}
}
