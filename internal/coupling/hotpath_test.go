package coupling

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"insitu/internal/analysis"
	"insitu/internal/core"
	"insitu/internal/obs"
	"insitu/internal/runmon"
)

// stepLogKernel records the steps it is analyzed at and the steps its output
// is flushed at.
type stepLogKernel struct {
	name              string
	step              int
	analyzed, flushed []int
}

func (k *stepLogKernel) Name() string                    { return k.name }
func (k *stepLogKernel) Setup() (int64, error)           { return 0, nil }
func (k *stepLogKernel) PreStep(step int) (int64, error) { k.step = step; return 0, nil }
func (k *stepLogKernel) Analyze(step int) (int64, error) {
	k.analyzed = append(k.analyzed, step)
	return 0, nil
}
func (k *stepLogKernel) Output(io.Writer) (int64, error) {
	k.flushed = append(k.flushed, k.step)
	return 0, nil
}
func (k *stepLogKernel) Free() {}

// inRun is what a membership set over steps would execute in a run of n
// steps: each listed step in 1..n once, in step order.
func inRun(steps []int, n int) []int {
	seen := map[int]bool{}
	var out []int
	for _, s := range steps {
		if s >= 1 && s <= n && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}

// TestRunnersExecuteHandBuiltStepLists: a plan built by hand may list steps
// out of order, twice, or outside the run; the runner executes exactly the
// steps a set would have, and leaves the plan's lists as it found them.
func TestRunnersExecuteHandBuiltStepLists(t *testing.T) {
	const steps = 30
	lists := map[string][2][]int{
		"ascending":  {{5, 10, 15, 20, 25, 30}, {10, 20, 30}},
		"descending": {{30, 25, 20, 15, 10, 5}, {30, 20, 10}},
		"shuffled":   {{20, 5, 30, 10, 25, 15}, {20, 30, 10}},
		"duplicates": {{5, 5, 10, 10, 10, 15, 30, 30}, {10, 10, 30}},
		"mixed":      {{15, 5, 15, 0, -3, 31, 99, 10, 5, 30}, {30, 99, 15, 15, 0}},
		"empty":      {nil, nil},
	}
	for name, l := range lists {
		wantA, wantO := inRun(l[0], steps), inRun(l[1], steps)
		origA, origO := append([]int(nil), l[0]...), append([]int(nil), l[1]...)

		k := &stepLogKernel{name: "k"}
		r := &Runner{
			Step:    func() {},
			Kernels: map[string]analysis.Kernel{"k": k},
			Rec: &core.Recommendation{Schedules: []core.AnalysisSchedule{
				{Name: "k", Enabled: true, AnalysisSteps: l[0], OutputSteps: l[1]},
			}},
			Res: core.Resources{Steps: steps, TimeThreshold: 1},
		}
		rep, err := r.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(k.analyzed, wantA) || !reflect.DeepEqual(k.flushed, wantO) {
			t.Errorf("%s: runner analyzed %v and flushed %v, want %v and %v", name, k.analyzed, k.flushed, wantA, wantO)
		}
		if kr := rep.Kernel("k"); kr.Analyses != len(wantA) || kr.Outputs != len(wantO) {
			t.Errorf("%s: report counts %d analyses, %d outputs", name, kr.Analyses, kr.Outputs)
		}

		if !reflect.DeepEqual(l[0], origA) || !reflect.DeepEqual(l[1], origO) {
			t.Errorf("%s: the plan's step lists were reordered in place: %v %v", name, l[0], l[1])
		}
	}
}

// nullKernel does nothing, so a run's cost is the loop and its telemetry.
type nullKernel struct{ name string }

func (k nullKernel) Name() string                    { return k.name }
func (k nullKernel) Setup() (int64, error)           { return 0, nil }
func (k nullKernel) PreStep(int) (int64, error)      { return 0, nil }
func (k nullKernel) Analyze(int) (int64, error)      { return 0, nil }
func (k nullKernel) Output(io.Writer) (int64, error) { return 0, nil }
func (k nullKernel) Free()                           {}

// instrumentedNullRun wires four null kernels (analysis every 4th step,
// output every 5th analysis) to every sink, a live monitor included.
func instrumentedNullRun(steps int) (r *Runner, tr *obs.Tracer, led *obs.EventLog, events int) {
	rec := &core.Recommendation{}
	kernels := map[string]analysis.Kernel{}
	var specs []core.AnalysisSpec
	for _, name := range []string{"k0", "k1", "k2", "k3"} {
		var as, os []int
		for s := 4 + len(kernels); s <= steps; s += 4 {
			as = append(as, s)
			if len(as)%5 == 0 {
				os = append(os, s)
			}
		}
		rec.Schedules = append(rec.Schedules, core.AnalysisSchedule{
			Name: name, Enabled: true, Count: len(as), Outputs: len(os), OutputEvery: 5, AnalysisSteps: as, OutputSteps: os,
		})
		events += len(as) + len(os)
		kernels[name] = nullKernel{name}
		specs = append(specs, core.AnalysisSpec{Name: name, CT: 1e-6, OT: 1e-6, MinInterval: 4})
	}
	res := core.Resources{Steps: steps, TimeThreshold: 1000}
	tr, led = obs.NewTracer(), obs.NewEventLog(io.Discard)
	mon := runmon.NewMonitor(runmon.FromPlan(specs, rec, res, 1e-6), runmon.Config{})
	return &Runner{
		Step: func() {}, Kernels: kernels, Rec: rec, Res: res, App: "null",
		Trace: tr, Metrics: obs.NewRegistry(), Ledger: led, Observe: mon.Observe,
	}, tr, led, events + steps // one event per step, analysis and output
}

// TestInstrumentedRunAllocationBudget prices the telemetry spine: with every
// sink attached a step may allocate at most three times (it was nineteen when
// each ledger line went through encoding/json and each span was a heap object
// with a map) and at most 220 bytes (it was 382 when a span was a 112-byte
// slot holding its strings).
func TestInstrumentedRunAllocationBudget(t *testing.T) {
	const steps = 2000
	var before, after runtime.MemStats
	perRun := testing.AllocsPerRun(3, func() {
		r, _, led, events := instrumentedNullRun(steps)
		runtime.ReadMemStats(&before)
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if led.Len() != 2+events { // run_start and run_end
			t.Fatalf("ledger holds %d events, want %d", led.Len(), 2+events)
		}
	})
	if perStep := perRun / steps; perStep > 3 {
		t.Fatalf("an instrumented run allocates %.1f times per step (%.0f per run), want at most 3", perStep, perRun)
	} else {
		t.Logf("%.2f allocations per step (%.0f per run of %d steps)", perStep, perRun, steps)
	}
	if perStep := float64(after.TotalAlloc-before.TotalAlloc) / steps; perStep > 220 {
		t.Fatalf("an instrumented run allocates %.0f bytes per step in Run, want at most 220", perStep)
	} else {
		t.Logf("%.0f bytes per step", perStep)
	}
}

// TestOneClockReadingPerBoundary: the reading that closes a timed region is
// both its span's end and its ledger event's timestamp, so across a run the
// two sinks differ by exactly the distance between their epochs.
func TestOneClockReadingPerBoundary(t *testing.T) {
	var buf bytes.Buffer
	r, tr, _, want := instrumentedNullRun(40)
	r.Ledger = obs.NewEventLog(&buf)
	r.Observe = nil
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadLedger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Span ends in ns from the tracer's epoch: kernel and output spans by
	// name and step argument, advance spans (no argument) in step order.
	type key struct {
		name string
		step int
	}
	ends := map[key]int64{}
	var advance []int64
	for _, e := range tr.Events() {
		switch {
		case e.Name == "advance":
			advance = append(advance, int64(e.Start+e.Dur))
		case e.Cat == "kernel" || e.Cat == "output":
			ends[key{e.Name, int(e.Args["step"])}] = int64(e.Start + e.Dur)
		}
	}
	var offset int64
	checked := 0
	for _, e := range events {
		var end int64
		switch e.Type {
		case obs.LedgerStep:
			end = advance[e.Step-1]
		case obs.LedgerAnalysis:
			end = ends[key{e.Name + "/analyze", e.Step}]
		case obs.LedgerOutput:
			end = ends[key{e.Name + "/output", e.Step}]
		default:
			continue
		}
		d := int64(math.Round(e.TS*1e3)) - end
		if checked == 0 {
			offset = d
		}
		if d != offset {
			t.Fatalf("%s %s step %d: ledger stamp and span end are %d ns apart, the first event's were %d", e.Type, e.Name, e.Step, d, offset)
		}
		checked++
	}
	if checked != want {
		t.Fatalf("checked %d events, want %d", checked, want)
	}
}

func BenchmarkInstrumentedRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, _, _, _ := instrumentedNullRun(2000)
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
