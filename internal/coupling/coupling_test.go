package coupling

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"insitu/internal/analysis"
	"insitu/internal/core"
)

// fakeKernel counts lifecycle calls and spins briefly in Analyze.
type fakeKernel struct {
	name                       string
	setup, pre, analyze, outs  int
	failSetup, failAnalyze     bool
	lastAnalyzed, lastOutputAt int
}

func (f *fakeKernel) Name() string { return f.name }
func (f *fakeKernel) Setup() (int64, error) {
	f.setup++
	if f.failSetup {
		return 0, fmt.Errorf("setup boom")
	}
	return 100, nil
}
func (f *fakeKernel) PreStep(step int) (int64, error) { f.pre++; return 8, nil }
func (f *fakeKernel) Analyze(step int) (int64, error) {
	f.analyze++
	f.lastAnalyzed = step
	if f.failAnalyze {
		return 0, fmt.Errorf("analyze boom")
	}
	return 16, nil
}
func (f *fakeKernel) Output(dst io.Writer) (int64, error) {
	f.outs++
	n, err := dst.Write([]byte("out\n"))
	return int64(n), err
}
func (f *fakeKernel) Free() {}

func twoKernelSetup() (map[string]analysis.Kernel, *core.Recommendation, core.Resources) {
	res := core.Resources{Steps: 20, TimeThreshold: 100}
	rec := &core.Recommendation{Schedules: []core.AnalysisSchedule{
		{Name: "k1", Enabled: true, Count: 4, AnalysisSteps: []int{5, 10, 15, 20}, OutputSteps: []int{10, 20}, Outputs: 2},
		{Name: "k2", Enabled: true, Count: 2, AnalysisSteps: []int{10, 20}, OutputSteps: []int{20}, Outputs: 1},
		{Name: "off", Enabled: false},
	}}
	return map[string]analysis.Kernel{
		"k1": &fakeKernel{name: "k1"},
		"k2": &fakeKernel{name: "k2"},
	}, rec, res
}

func TestRunnerExecutesSchedule(t *testing.T) {
	kernels, rec, res := twoKernelSetup()
	steps := 0
	var buf bytes.Buffer
	r := &Runner{
		Step:    func() { steps++ },
		Kernels: kernels,
		Rec:     rec,
		Res:     res,
		Output:  &buf,
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if steps != 20 {
		t.Fatalf("sim steps = %d", steps)
	}
	k1 := kernels["k1"].(*fakeKernel)
	k2 := kernels["k2"].(*fakeKernel)
	if k1.setup != 1 || k1.pre != 20 || k1.analyze != 4 || k1.outs != 2 {
		t.Fatalf("k1 lifecycle: %+v", k1)
	}
	if k2.analyze != 2 || k2.outs != 1 {
		t.Fatalf("k2 lifecycle: %+v", k2)
	}
	if rep.Kernel("k1").Analyses != 4 || rep.Kernel("k1").Outputs != 2 {
		t.Fatalf("report: %+v", rep.Kernel("k1"))
	}
	if rep.Kernel("k1").OutBytes != 8 {
		t.Fatalf("k1 out bytes = %d", rep.Kernel("k1").OutBytes)
	}
	if got := buf.String(); got != "out\nout\nout\n" {
		t.Fatalf("output = %q", got)
	}
	if rep.Kernel("missing") != nil {
		t.Fatal("missing kernel should be nil")
	}
	if rep.AnalysisTime < 0 {
		t.Fatal("negative analysis time")
	}
	u := rep.Utilization(res)
	if u < 0 || u > 1 {
		t.Fatalf("utilization = %g", u)
	}
	if rep.Utilization(core.Resources{}) != 0 {
		t.Fatal("zero-threshold utilization must be 0")
	}
}

func TestRunnerDisabledKernelNotTouched(t *testing.T) {
	kernels, rec, res := twoKernelSetup()
	off := &fakeKernel{name: "off"}
	kernels["off"] = off
	r := &Runner{Step: func() {}, Kernels: kernels, Rec: rec, Res: res}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if off.setup != 0 || off.pre != 0 {
		t.Fatal("disabled kernel was touched")
	}
}

func TestRunnerErrors(t *testing.T) {
	kernels, rec, res := twoKernelSetup()
	if _, err := (&Runner{Kernels: kernels, Rec: rec, Res: res}).Run(); err == nil {
		t.Fatal("expected missing-step error")
	}
	if _, err := (&Runner{Step: func() {}, Kernels: kernels, Res: res}).Run(); err == nil {
		t.Fatal("expected missing-recommendation error")
	}
	delete(kernels, "k2")
	if _, err := (&Runner{Step: func() {}, Kernels: kernels, Rec: rec, Res: res}).Run(); err == nil {
		t.Fatal("expected missing-kernel error")
	}

	kernels, rec, res = twoKernelSetup()
	kernels["k1"].(*fakeKernel).failSetup = true
	if _, err := (&Runner{Step: func() {}, Kernels: kernels, Rec: rec, Res: res}).Run(); err == nil {
		t.Fatal("expected setup error")
	}
	kernels, rec, res = twoKernelSetup()
	kernels["k1"].(*fakeKernel).failAnalyze = true
	if _, err := (&Runner{Step: func() {}, Kernels: kernels, Rec: rec, Res: res}).Run(); err == nil {
		t.Fatal("expected analyze error")
	}
}

func TestSpecFromCosts(t *testing.T) {
	c := analysis.Costs{
		Kernel: "k", FT: time.Second, IT: time.Millisecond,
		CT: 2 * time.Second, OT: 500 * time.Millisecond,
		FM: 1, IM: 2, CM: 3, OM: 4,
	}
	s := SpecFromCosts(c, 50)
	if s.Name != "k" || s.FT != 1 || s.IT != 0.001 || s.CT != 2 || s.OT != 0.5 {
		t.Fatalf("spec times: %+v", s)
	}
	if s.FM != 1 || s.IM != 2 || s.CM != 3 || s.OM != 4 || s.MinInterval != 50 {
		t.Fatalf("spec memory: %+v", s)
	}
}

// TestRunnerReplanSwapsSchedule drives the Replan hook directly: at step 10
// the schedule swaps to one that drops k1, re-times k2, and enables a kernel
// the up-front plan left out. The previously disabled kernel must be Setup()
// exactly once (at the swap, not at run start), k1 must stop executing, and
// every kernel's accumulated report must survive the swap.
func TestRunnerReplanSwapsSchedule(t *testing.T) {
	kernels, rec, res := twoKernelSetup()
	off := &fakeKernel{name: "off"}
	kernels["off"] = off
	next := &core.Recommendation{Schedules: []core.AnalysisSchedule{
		{Name: "k1", Enabled: false},
		// The new schedule also lists steps at and before the swap (a replanner
		// may hand over a whole-run plan): those are in the past and never run.
		{Name: "k2", Enabled: true, Count: 4, AnalysisSteps: []int{4, 10, 14, 18}, OutputSteps: []int{10, 18}, Outputs: 2},
		{Name: "off", Enabled: true, Count: 3, AnalysisSteps: []int{2, 12, 16}, OutputSteps: []int{2, 16}, Outputs: 2},
	}}
	var replanSteps []int
	r := &Runner{
		Step:    func() {},
		Kernels: kernels,
		Rec:     rec,
		Res:     res,
		Replan: func(step int) *core.Recommendation {
			replanSteps = append(replanSteps, step)
			if step == 10 {
				return next
			}
			return nil
		},
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(replanSteps) != 20 || replanSteps[0] != 1 || replanSteps[19] != 20 {
		t.Fatalf("replan hook called at %v, want every step 1..20", replanSteps)
	}
	k1 := kernels["k1"].(*fakeKernel)
	k2 := kernels["k2"].(*fakeKernel)
	// k1 ran its steps at 5 and 10 only: the swap happens after step 10.
	if k1.analyze != 2 || k1.lastAnalyzed != 10 {
		t.Fatalf("k1 analyze=%d last=%d, want 2 analyses ending at step 10", k1.analyze, k1.lastAnalyzed)
	}
	// k2 ran at 10 from the old schedule, then 14 and 18 from the new one.
	if k2.analyze != 3 || k2.lastAnalyzed != 18 {
		t.Fatalf("k2 analyze=%d last=%d, want 3 analyses ending at step 18", k2.analyze, k2.lastAnalyzed)
	}
	if k2.setup != 1 {
		t.Fatalf("k2 set up %d times across the swap, want 1", k2.setup)
	}
	// Its old output at 20 was swapped away, the new one at 10 is past.
	if k2.outs != 1 {
		t.Fatalf("k2 outs=%d, want the one output at step 18", k2.outs)
	}
	// The newly enabled kernel is set up once, at the swap, and runs the new
	// schedule only.
	if off.setup != 1 {
		t.Fatalf("off set up %d times, want 1", off.setup)
	}
	if off.analyze != 2 || off.outs != 1 {
		t.Fatalf("off analyze=%d outs=%d, want 2 and 1", off.analyze, off.outs)
	}
	kr := rep.Kernel("off")
	if kr == nil || kr.Analyses != 2 || kr.Outputs != 1 {
		t.Fatalf("off report %+v, want 2 analyses and 1 output", kr)
	}
	if rep.Kernel("k1") == nil || rep.Kernel("k1").Analyses != 2 {
		t.Fatalf("k1 report lost across the swap: %+v", rep.Kernel("k1"))
	}
	if got := rep.Kernel("k2"); got == nil || got.Analyses != 3 {
		t.Fatalf("k2 report did not accumulate across the swap: %+v", got)
	}
}
