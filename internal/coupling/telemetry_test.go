package coupling

import (
	"testing"

	"insitu/internal/core"
	"insitu/internal/obs"
)

// contains reports whether outer fully encloses inner on the same track.
func contains(outer, inner obs.Event) bool {
	return outer.Track == inner.Track &&
		outer.Start <= inner.Start &&
		inner.Start+inner.Dur <= outer.Start+outer.Dur
}

func TestRunnerTraceNesting(t *testing.T) {
	kernels, rec, res := twoKernelSetup()
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	r := &Runner{
		Step:    func() {},
		Kernels: kernels,
		Rec:     rec,
		Res:     res,
		Trace:   tr,
		Metrics: reg,
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}

	events := tr.Events()
	var steps, analyzes, outputs []obs.Event
	for _, e := range events {
		switch {
		case e.Name == "step" && e.Cat == "sim":
			steps = append(steps, e)
		case e.Cat == "kernel" && e.Name != "k1/setup" && e.Name != "k2/setup":
			analyzes = append(analyzes, e)
		case e.Cat == "output":
			outputs = append(outputs, e)
		}
	}
	if len(steps) != res.Steps {
		t.Fatalf("step spans = %d, want %d", len(steps), res.Steps)
	}
	// k1: 4 analyses, k2: 2 → 6 kernel spans; 3 output spans.
	if len(analyzes) != 6 {
		t.Fatalf("kernel spans = %d, want 6", len(analyzes))
	}
	if len(outputs) != 3 {
		t.Fatalf("output spans = %d, want 3", len(outputs))
	}
	// Every kernel and output span must nest inside exactly one step span,
	// and the step arg must agree.
	for _, in := range append(analyzes, outputs...) {
		hits := 0
		for _, st := range steps {
			if contains(st, in) {
				hits++
				if st.Args["step"] != in.Args["step"] {
					t.Errorf("span %s step arg %v inside step %v", in.Name, in.Args["step"], st.Args["step"])
				}
			}
		}
		if hits != 1 {
			t.Errorf("span %s at %v nests in %d step spans, want 1", in.Name, in.Start, hits)
		}
	}

	var stepCount, k1Analyses float64
	for _, m := range reg.Snapshot() {
		switch {
		case m.Name == "coupling_steps_total":
			stepCount = m.Value
		case m.Name == "coupling_analyses_total" && m.Labels["kernel"] == "k1":
			k1Analyses = m.Value
		}
	}
	if stepCount != float64(res.Steps) {
		t.Errorf("coupling_steps_total = %v, want %d", stepCount, res.Steps)
	}
	if k1Analyses != 4 {
		t.Errorf("coupling_analyses_total{kernel=k1} = %v, want 4", k1Analyses)
	}
}

func TestReportEdgeCases(t *testing.T) {
	// A zero-step run completes without touching any kernel.
	kernels, rec, _ := twoKernelSetup()
	r := &Runner{Step: func() {}, Kernels: kernels, Rec: rec, Res: core.Resources{Steps: 0, TimeThreshold: 1}}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != 0 || rep.SimTime != 0 {
		t.Fatalf("zero-step report: %+v", rep)
	}
	if got := rep.Kernel("k1").Analyses; got != 0 {
		t.Fatalf("zero-step run analyzed %d times", got)
	}
	// Utilization is defined (setup time only) and an unknown kernel is nil.
	if u := rep.Utilization(core.Resources{TimeThreshold: 1}); u < 0 {
		t.Fatalf("utilization = %g", u)
	}
	if rep.Utilization(core.Resources{}) != 0 {
		t.Fatal("utilization with no threshold must be 0")
	}
	if rep.Utilization(core.Resources{TimeThreshold: -5}) != 0 {
		t.Fatal("utilization with negative threshold must be 0")
	}
	if rep.Kernel("no-such-kernel") != nil {
		t.Fatal("unknown kernel must be nil")
	}
	if (&Report{}).Kernel("k1") != nil {
		t.Fatal("empty report must return nil kernel")
	}
	if (&Report{}).Utilization(core.Resources{TimeThreshold: 2}) != 0 {
		t.Fatal("empty report utilization must be 0")
	}
}
