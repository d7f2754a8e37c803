package core

import (
	"math"
	"testing"
)

// Table-driven edge cases for the AnalyzeThresholdSensitivity bisection.
// Each case states the exact crossing analytically so a regression in the
// bisection (wrong bracket, wrong count comparison, missed +Inf path)
// produces a concrete numeric mismatch rather than a vague failure.
func TestThresholdSensitivityEdgeCases(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name  string
		specs []AnalysisSpec
		res   Resources
		// wantCount and wantNext are indexed like the returned entries
		// (one per analysis, in spec order).
		wantCount []int
		wantNext  []float64
		tol       float64
	}{
		{
			// Even 64 x threshold cannot afford a single step: the
			// bisection must not run at all and report +Inf from the probe.
			name:      "never affordable within 64x",
			specs:     []AnalysisSpec{{Name: "huge", CT: 1000, MinInterval: 500}},
			res:       Resources{Steps: 1000, TimeThreshold: 1},
			wantCount: []int{0},
			wantNext:  []float64{inf},
		},
		{
			// Current count is zero but one step becomes affordable inside
			// the search window: the frontier is the first step's full cost.
			name:      "zero count becomes affordable",
			specs:     []AnalysisSpec{{Name: "big", CT: 10, MinInterval: 1000}},
			res:       Resources{Steps: 1000, TimeThreshold: 1},
			wantCount: []int{0},
			wantNext:  []float64{10},
			tol:       0.01,
		},
		{
			// The threshold is already sufficient for the interval-bound
			// maximum; no budget buys another step.
			name:      "threshold already sufficient",
			specs:     []AnalysisSpec{{Name: "cheap", CT: 0.25, MinInterval: 250}},
			res:       Resources{Steps: 1000, TimeThreshold: 10},
			wantCount: []int{4},
			wantNext:  []float64{inf},
		},
		{
			// Interior crossing: two steps fit under 2.5, the third costs
			// exactly 3.
			name:      "interior bisection crossing",
			specs:     []AnalysisSpec{{Name: "mid", CT: 1, MinInterval: 100}},
			res:       Resources{Steps: 1000, TimeThreshold: 2.5},
			wantCount: []int{2},
			wantNext:  []float64{3},
			tol:       0.01,
		},
		{
			// The mandatory output's time is part of the step cost: the
			// second step crosses at 2 x CT + OT, not 2 x CT.
			name:      "output time counted in crossing",
			specs:     []AnalysisSpec{{Name: "out", CT: 1, OT: 0.5, MinInterval: 100}},
			res:       Resources{Steps: 1000, TimeThreshold: 2},
			wantCount: []int{1},
			wantNext:  []float64{2.5},
			tol:       0.01,
		},
		{
			// The search window ends at 64 x threshold: a first step costing
			// 63 is found, one costing 65 reports +Inf.
			name:      "crossing inside the 64x window",
			specs:     []AnalysisSpec{{Name: "big", CT: 63, MinInterval: 1000}},
			res:       Resources{Steps: 1000, TimeThreshold: 1},
			wantCount: []int{0},
			wantNext:  []float64{63},
			tol:       0.01,
		},
		{
			name:      "crossing beyond the 64x window",
			specs:     []AnalysisSpec{{Name: "big", CT: 65, MinInterval: 1000}},
			res:       Resources{Steps: 1000, TimeThreshold: 1},
			wantCount: []int{0},
			wantNext:  []float64{inf},
		},
		{
			// Two saturated analyses: one entry each, in spec order, both
			// +Inf — the per-analysis loop must not cross wires.
			name: "multiple analyses report independently",
			specs: []AnalysisSpec{
				{Name: "a", CT: 0.5, MinInterval: 500},
				{Name: "b", CT: 0.25, MinInterval: 250},
			},
			res:       Resources{Steps: 1000, TimeThreshold: 100},
			wantCount: []int{2, 4},
			wantNext:  []float64{inf, inf},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := AnalyzeThresholdSensitivity(tc.specs, tc.res)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != len(tc.wantCount) {
				t.Fatalf("got %d entries, want %d", len(out), len(tc.wantCount))
			}
			for i, ts := range out {
				if ts.Name != tc.specs[i].Name {
					t.Errorf("entry %d: name = %q, want %q", i, ts.Name, tc.specs[i].Name)
				}
				if ts.CurrentCount != tc.wantCount[i] {
					t.Errorf("entry %d: current count = %d, want %d", i, ts.CurrentCount, tc.wantCount[i])
				}
				switch want := tc.wantNext[i]; {
				case math.IsInf(want, 1):
					if !math.IsInf(ts.NextThreshold, 1) {
						t.Errorf("entry %d: next threshold = %g, want +Inf", i, ts.NextThreshold)
					}
				default:
					if math.Abs(ts.NextThreshold-want) > tc.tol {
						t.Errorf("entry %d: next threshold = %g, want %g +- %g", i, ts.NextThreshold, want, tc.tol)
					}
				}
			}
		})
	}
}

// TestThresholdSensitivityRejectsNonPositiveThreshold pins the argument
// contract: the bisection needs a positive starting threshold to bracket.
func TestThresholdSensitivityRejectsNonPositiveThreshold(t *testing.T) {
	specs := []AnalysisSpec{{Name: "a", CT: 1, MinInterval: 10}}
	for _, th := range []float64{0, -1} {
		res := Resources{Steps: 100, TimeThreshold: th}
		if _, err := AnalyzeThresholdSensitivity(specs, res); err == nil {
			t.Errorf("threshold %g: expected an error", th)
		}
	}
}
