package coupling

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"insitu/internal/analysis"
	"insitu/internal/core"
	"insitu/internal/obs"
)

// everyStep lists steps 1..n.
func everyStep(n int) []int {
	steps := make([]int, n)
	for i := range steps {
		steps[i] = i + 1
	}
	return steps
}

// TestRegionsTileTheStep: a step's regions run back to back — the reading
// that closes one region opens the next — so the report's times add up, to
// the nanosecond, to the distance from each advance's start to the end of the
// step's last analysis or output span.
func TestRegionsTileTheStep(t *testing.T) {
	const steps = 30
	var some []int
	for s := 3; s <= steps; s += 3 {
		some = append(some, s)
	}
	rec := &core.Recommendation{Schedules: []core.AnalysisSchedule{
		{Name: "k1", Enabled: true, AnalysisSteps: []int{5, 10, 15}, OutputSteps: []int{10}},
		{Name: "k2", Enabled: true}, // facilitation only
		{Name: "last", Enabled: true, AnalysisSteps: everyStep(steps), OutputSteps: some},
	}}
	kernels := map[string]analysis.Kernel{}
	for _, s := range rec.Schedules {
		kernels[s.Name] = &fakeKernel{name: s.Name}
	}
	tr := obs.NewTracer()
	r := &Runner{Step: func() {}, Kernels: kernels, Rec: rec, Res: core.Resources{Steps: steps, TimeThreshold: 1}, Trace: tr}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := rep.SimTime
	for _, k := range rep.Kernels {
		want += k.PreTime + k.Analyze + k.OutputTime
	}

	var advance []time.Duration // start offsets, in step order
	lastEnd := map[int]time.Duration{}
	for _, e := range tr.Events() {
		switch {
		case e.Name == "advance":
			advance = append(advance, e.Start)
		case e.Cat == "output", e.Cat == "kernel" && !strings.HasSuffix(e.Name, "/setup"):
			step := int(e.Args["step"])
			lastEnd[step] = max(lastEnd[step], e.Start+e.Dur)
		}
	}
	if len(advance) != steps || len(lastEnd) != steps {
		t.Fatalf("%d advance spans and kernel spans in %d steps, want %d of each", len(advance), len(lastEnd), steps)
	}
	var got time.Duration
	for i, start := range advance {
		got += lastEnd[i+1] - start
	}
	if got != want {
		t.Fatalf("SimTime + PreTime + Analyze + OutputTime = %v, but the steps' regions span %v (%v apart)", want, got, got-want)
	}
}

// stepFailKernel analyzes without cost and fails once, at step at: in
// PreStep when pre is set, in Analyze otherwise.
type stepFailKernel struct {
	nullKernel
	at  int
	pre bool
	err error
}

func (k stepFailKernel) PreStep(step int) (int64, error) {
	if k.pre && step == k.at {
		return 0, k.err
	}
	return 0, nil
}

func (k stepFailKernel) Analyze(step int) (int64, error) {
	if !k.pre && step == k.at {
		return 0, k.err
	}
	return 0, nil
}

// TestStepFailurePublishesMeasuredRegions: a kernel that fails mid-step
// (in PreStep, or in Analyze) ends the run with its error, and every sink
// still holds what was measured before the failure in the order it ran —
// that step's step event and the earlier kernels' analyses and outputs — and
// nothing for the failing region. A file-backed ledger stays readable.
func TestStepFailurePublishesMeasuredRegions(t *testing.T) {
	const steps, failAt = 6, 4
	names := []string{"k1", "k2", "k3"} // k2 fails
	type event struct {
		typ, name string
		step      int
	}
	want := []event{{obs.LedgerRunStart, "failing", 0}}
	for s := 1; s <= failAt; s++ {
		want = append(want, event{obs.LedgerStep, "", s})
		for _, n := range names {
			if s == failAt && n == "k2" {
				break
			}
			want = append(want, event{obs.LedgerAnalysis, n, s}, event{obs.LedgerOutput, n, s})
		}
	}
	project := func(events []obs.LedgerEvent) []event {
		var out []event
		for _, e := range events {
			out = append(out, event{e.Type, e.Name, e.Step})
		}
		return out
	}

	for _, pre := range []bool{true, false} {
		name := map[bool]string{true: "prestep", false: "analyze"}[pre]
		t.Run(name, func(t *testing.T) {
			boom := errors.New("boom")
			kernels := map[string]analysis.Kernel{
				"k1": nullKernel{"k1"},
				"k2": stepFailKernel{nullKernel: nullKernel{"k2"}, at: failAt, pre: pre, err: boom},
				"k3": nullKernel{"k3"},
			}
			rec := &core.Recommendation{}
			for _, n := range names {
				rec.Schedules = append(rec.Schedules, core.AnalysisSchedule{
					Name: n, Enabled: true, AnalysisSteps: everyStep(steps), OutputSteps: everyStep(steps),
				})
			}
			path := filepath.Join(t.TempDir(), "run.jsonl")
			led, err := obs.OpenEventLog(path, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer led.Close()
			var observed []obs.LedgerEvent
			tr := obs.NewTracer()
			r := &Runner{
				Step: func() {}, Kernels: kernels, Rec: rec, Res: core.Resources{Steps: steps, TimeThreshold: 1},
				App: "failing", Trace: tr, Ledger: led,
				Observe: func(e obs.LedgerEvent) { observed = append(observed, e) },
			}
			if _, err := r.Run(); !errors.Is(err, boom) || !strings.Contains(err.Error(), fmt.Sprintf("%s k2 at %d", name, failAt)) {
				t.Fatalf("Run returned %v, want the %s error of k2 at step %d", err, name, failAt)
			}
			logged, err := obs.ReadLedgerFile(path)
			if err != nil {
				t.Fatalf("the ledger of a failed run does not read back: %v", err)
			}
			if got := project(logged); !reflect.DeepEqual(got, want) {
				t.Errorf("ledger holds\n%v\nwant\n%v", got, want)
			}
			if got := project(observed); !reflect.DeepEqual(got, want) {
				t.Errorf("Observe saw\n%v\nwant\n%v", got, want)
			}
			// The failing step's span is closed too, so each step's kernel
			// spans still nest in a step span.
			stepSpans := 0
			for _, e := range tr.Events() {
				if e.Name == "step" {
					stepSpans++
				}
			}
			if stepSpans != failAt {
				t.Errorf("%d step spans, want %d", stepSpans, failAt)
			}
		})
	}
}
