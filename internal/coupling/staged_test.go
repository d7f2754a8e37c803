package coupling

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"insitu/internal/analysis"
	"insitu/internal/core"
)

func placementRec() (*core.PlacementRecommendation, core.PlacementResources) {
	res := core.PlacementResources{
		Resources:      core.Resources{Steps: 12, TimeThreshold: 100},
		NetBandwidth:   1e9,
		StageMemTotal:  1 << 30,
		StageTimeTotal: 100,
	}
	rec := &core.PlacementRecommendation{Schedules: []core.PlacementSchedule{
		{
			AnalysisSchedule: core.AnalysisSchedule{
				Name: "local", Enabled: true, Count: 3,
				AnalysisSteps: []int{4, 8, 12}, OutputSteps: []int{12},
			},
			Site: core.InSitu,
		},
		{
			AnalysisSchedule: core.AnalysisSchedule{
				Name: "remote", Enabled: true, Count: 4,
				AnalysisSteps: []int{3, 6, 9, 12},
			},
			Site: core.CoAnalysis,
		},
		{AnalysisSchedule: core.AnalysisSchedule{Name: "off"}, Site: core.InSitu},
	}}
	return rec, res
}

func TestPlacementRunnerOverlapsStagedWork(t *testing.T) {
	rec, res := placementRec()
	local := &fakeKernel{name: "local"}
	var stagedRuns int64
	staged := StagedAnalysis{
		Name: "remote",
		Capture: func(step int) (func() error, int64, error) {
			return func() error {
				time.Sleep(20 * time.Millisecond) // heavy offline work
				atomic.AddInt64(&stagedRuns, 1)
				return nil
			}, 1 << 20, nil
		},
	}
	r := &PlacementRunner{
		Step:   func() { time.Sleep(time.Millisecond) },
		InSitu: map[string]analysis.Kernel{"local": local},
		Staged: map[string]StagedAnalysis{"remote": staged},
		Rec:    rec,
		Res:    res,
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&stagedRuns); got != 4 {
		t.Fatalf("staged analyses ran %d times, want 4", got)
	}
	if rep.StagedRuns["remote"] != 4 || rep.InSituRuns["local"] != 3 {
		t.Fatalf("run counts: %+v %+v", rep.StagedRuns, rep.InSituRuns)
	}
	if local.analyze != 3 || local.outs != 1 {
		t.Fatalf("in-situ kernel lifecycle: %+v", local)
	}
	if rep.Transferred != 4<<20 {
		t.Fatalf("transferred = %d", rep.Transferred)
	}
	// The 4 x 20ms of staged compute must NOT appear at the simulation
	// site: capture is trivial here, so SimSiteTime stays tiny while
	// StageTime accumulates the full offline cost.
	if rep.StageTime < 75*time.Millisecond {
		t.Fatalf("stage time = %v, want ~80ms", rep.StageTime)
	}
	if rep.SimSiteTime > 30*time.Millisecond {
		t.Fatalf("sim-site time %v should exclude staged compute", rep.SimSiteTime)
	}
	if rep.StageWall <= 0 {
		t.Fatal("stage wall time missing")
	}
}

func TestPlacementRunnerErrors(t *testing.T) {
	rec, res := placementRec()
	local := &fakeKernel{name: "local"}
	okStaged := StagedAnalysis{
		Name: "remote",
		Capture: func(step int) (func() error, int64, error) {
			return func() error { return nil }, 0, nil
		},
	}

	if _, err := (&PlacementRunner{InSitu: map[string]analysis.Kernel{}, Rec: rec, Res: res}).Run(); err == nil {
		t.Fatal("expected missing-step error")
	}
	if _, err := (&PlacementRunner{Step: func() {}, Res: res}).Run(); err == nil {
		t.Fatal("expected missing-rec error")
	}
	if _, err := (&PlacementRunner{
		Step:   func() {},
		InSitu: map[string]analysis.Kernel{},
		Staged: map[string]StagedAnalysis{"remote": okStaged},
		Rec:    rec, Res: res,
	}).Run(); err == nil {
		t.Fatal("expected missing in-situ kernel error")
	}
	if _, err := (&PlacementRunner{
		Step:   func() {},
		InSitu: map[string]analysis.Kernel{"local": local},
		Staged: map[string]StagedAnalysis{},
		Rec:    rec, Res: res,
	}).Run(); err == nil {
		t.Fatal("expected missing staged analysis error")
	}

	// Capture failure.
	badCapture := StagedAnalysis{
		Name: "remote",
		Capture: func(step int) (func() error, int64, error) {
			return nil, 0, fmt.Errorf("capture boom")
		},
	}
	if _, err := (&PlacementRunner{
		Step:   func() {},
		InSitu: map[string]analysis.Kernel{"local": &fakeKernel{name: "local"}},
		Staged: map[string]StagedAnalysis{"remote": badCapture},
		Rec:    rec, Res: res,
	}).Run(); err == nil {
		t.Fatal("expected capture error")
	}

	// Staged job failure surfaces after drain.
	badJob := StagedAnalysis{
		Name: "remote",
		Capture: func(step int) (func() error, int64, error) {
			return func() error { return fmt.Errorf("staging boom") }, 0, nil
		},
	}
	if _, err := (&PlacementRunner{
		Step:   func() {},
		InSitu: map[string]analysis.Kernel{"local": &fakeKernel{name: "local"}},
		Staged: map[string]StagedAnalysis{"remote": badJob},
		Rec:    rec, Res: res,
	}).Run(); err == nil {
		t.Fatal("expected staged-job error")
	}
}

func TestPlacementRunnerEndToEndWithSolver(t *testing.T) {
	// Solve a placement instance and execute it with fake workloads whose
	// durations mirror the specs.
	specs := []core.PlacementSpec{
		{
			AnalysisSpec:  core.AnalysisSpec{Name: "heavy", CT: 40, MinInterval: 4},
			TransferBytes: 1 << 20,
		},
		{
			AnalysisSpec: core.AnalysisSpec{Name: "cheap", CT: 0.001, MinInterval: 4},
		},
	}
	res := core.PlacementResources{
		Resources:      core.Resources{Steps: 12, TimeThreshold: 1},
		NetBandwidth:   1e9,
		StageMemTotal:  1 << 30,
		StageTimeTotal: 1000,
	}
	rec, err := core.SolvePlacement(specs, res, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Schedule("heavy").Site != core.CoAnalysis {
		t.Fatalf("heavy should offload: %+v", rec.Schedule("heavy"))
	}
	// The cheap analysis transfers nothing, so both sites run it at the same
	// objective and the solver may return either: it gets a workload for
	// each, and the runner must use the one the schedule names.
	staged := func(name string, bytes int64) StagedAnalysis {
		return StagedAnalysis{Name: name, Capture: func(step int) (func() error, int64, error) {
			return func() error { return nil }, bytes, nil
		}}
	}
	runner := &PlacementRunner{
		Step:   func() {},
		InSitu: map[string]analysis.Kernel{"cheap": &fakeKernel{name: "cheap"}},
		Staged: map[string]StagedAnalysis{"heavy": staged("heavy", 1<<20), "cheap": staged("cheap", 0)},
		Rec:    rec,
		Res:    res,
	}
	rep, err := runner.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.StagedRuns["heavy"] != rec.Schedule("heavy").Count {
		t.Fatalf("staged runs %d != scheduled %d", rep.StagedRuns["heavy"], rec.Schedule("heavy").Count)
	}
	cheap := rec.Schedule("cheap")
	if cheap.Count != 3 || rep.InSituRuns["cheap"]+rep.StagedRuns["cheap"] != cheap.Count {
		t.Fatalf("cheap scheduled %d times at %v, ran %d in-situ and %d staged, want 3 in all",
			cheap.Count, cheap.Site, rep.InSituRuns["cheap"], rep.StagedRuns["cheap"])
	}
}
