package core

import (
	"math/rand"
	"sort"
	"testing"
)

// modePeakMemoryWalk is the original O(steps) reference recurrence
// (equations 5–7 walked step by step); the event-jumping implementation in
// schedule.go must agree with it exactly on every schedule shape.
func modePeakMemoryWalk(a AnalysisSpec, steps int, analysisSteps, outputSteps []int) int64 {
	isA, isO := map[int]bool{}, map[int]bool{}
	for _, j := range analysisSteps {
		isA[j] = true
	}
	for _, j := range outputSteps {
		isO[j] = true
	}
	mEnd := a.FM
	peak := a.FM
	for j := 1; j <= steps; j++ {
		mStart := mEnd + a.IM
		if isA[j] {
			mStart += a.CM
		}
		if isO[j] {
			mStart += a.OM
		}
		if mStart > peak {
			peak = mStart
		}
		if isO[j] {
			mEnd = a.FM
		} else {
			mEnd = mStart
		}
	}
	return peak
}

func TestModePeakMemoryMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		steps := 1 + rng.Intn(64)
		a := AnalysisSpec{
			FM: int64(rng.Intn(1 << 20)),
			IM: int64(rng.Intn(1 << 10)),
			CM: int64(rng.Intn(1 << 16)),
			OM: int64(rng.Intn(1 << 16)),
		}
		var as, os []int
		for i, n := 0, rng.Intn(steps+1); i < n; i++ {
			as = append(as, 1+rng.Intn(steps))
		}
		sort.Ints(as)
		// Outputs are a subset of analysis steps in real schedules, but the
		// function must not rely on that; mix subset picks with strays.
		for _, s := range as {
			if rng.Intn(3) == 0 {
				os = append(os, s)
			}
		}
		if rng.Intn(4) == 0 && steps > 1 {
			os = append(os, 1+rng.Intn(steps))
		}
		sort.Ints(os)
		got := modePeakMemory(a, steps, as, os)
		want := modePeakMemoryWalk(a, steps, as, os)
		if got != want {
			t.Fatalf("trial %d: steps=%d as=%v os=%v spec=%+v: event-jump peak %d, walk peak %d",
				trial, steps, as, os, a, got, want)
		}
	}
}

func TestModePeakMemoryRealSchedules(t *testing.T) {
	a := AnalysisSpec{FM: 100 << 20, IM: 1 << 16, CM: 30 << 20, OM: 10 << 20}
	for _, steps := range []int{100, 1000, 16384} {
		for _, count := range []int{1, 7, 50, steps / 2} {
			if count < 1 {
				continue
			}
			as := expandSteps(steps, count)
			for _, k := range []int{1, 2, 5, count} {
				os := expandOutputs(as, k)
				got := modePeakMemory(a, steps, as, os)
				want := modePeakMemoryWalk(a, steps, as, os)
				if got != want {
					t.Fatalf("steps=%d count=%d k=%d: event-jump peak %d, walk peak %d",
						steps, count, k, got, want)
				}
			}
		}
	}
}

// addStepMemoryWalk is the step-by-step reference for addStepMemory:
// equations 5–7 with one hash-set lookup per step per list, entries outside
// the run simply never visited.
func addStepMemoryWalk(mem []int64, a AnalysisSpec, analysisSteps, outputSteps []int) {
	isA, isO := map[int]bool{}, map[int]bool{}
	for _, j := range analysisSteps {
		isA[j] = true
	}
	for _, j := range outputSteps {
		isO[j] = true
	}
	mEnd := a.FM
	for j := 1; j < len(mem); j++ {
		mStart := mEnd + a.IM
		if isA[j] {
			mStart += a.CM
		}
		if isO[j] {
			mStart += a.OM
			mEnd = a.FM
		} else {
			mEnd = mStart
		}
		mem[j] += mStart
	}
}

// TestAddStepMemoryMatchesWalk holds the event-jumping addStepMemory to the
// step-by-step walk on random schedules: im of either sign, repeated and
// out-of-range steps in both lists, outputs on analysis steps and off them,
// several analyses accumulated into one vector.
func TestAddStepMemoryMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var withIM, strays, repeats, outputOnAnalysis int
	for trial := 0; trial < 2000; trial++ {
		steps := 1 + rng.Intn(64)
		got, want := make([]int64, steps+1), make([]int64, steps+1)
		for analyses := 1 + rng.Intn(3); analyses > 0; analyses-- {
			a := AnalysisSpec{
				FM: int64(rng.Intn(1 << 20)),
				IM: int64(rng.Intn(1<<10) - 1<<8),
				CM: int64(rng.Intn(1 << 16)),
				OM: int64(rng.Intn(1 << 16)),
			}
			if a.IM != 0 {
				withIM++
			}
			var as, os []int
			for i, n := 0, rng.Intn(steps+1); i < n; i++ {
				as = append(as, 1+rng.Intn(steps))
			}
			for _, s := range as {
				if rng.Intn(3) == 0 {
					os = append(os, s)
					outputOnAnalysis++
				}
			}
			if rng.Intn(4) == 0 {
				os = append(os, 1+rng.Intn(steps)) // maybe not an analysis step
			}
			if rng.Intn(4) == 0 {
				as = append(as, -rng.Intn(3), steps+1+rng.Intn(5))
				os = append(os, 0, steps+1+rng.Intn(5))
				strays++
			}
			if len(as) > 0 && rng.Intn(4) == 0 {
				as = append(as, as[rng.Intn(len(as))])
				repeats++
			}
			sort.Ints(as)
			sort.Ints(os)
			addStepMemory(got, a, as, os)
			addStepMemoryWalk(want, a, as, os)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("trial %d: steps=%d as=%v os=%v spec=%+v: step %d memory %d, walk %d",
						trial, steps, as, os, a, j, got[j], want[j])
				}
			}
		}
	}
	if withIM < 1000 || strays < 100 || repeats < 100 || outputOnAnalysis < 1000 {
		t.Fatalf("corpus too tame: %d analyses with im, %d with strays, %d with repeats, %d outputs on analysis steps",
			withIM, strays, repeats, outputOnAnalysis)
	}
}

// TestAddStepMemoryMatchesRecurrence pins addStepMemory against equations 5–7
// written out naively on hand-picked shapes: one membership scan per step per
// list.
func TestAddStepMemoryMatchesRecurrence(t *testing.T) {
	listed := func(steps []int, j int) bool {
		for _, s := range steps {
			if s == j {
				return true
			}
		}
		return false
	}
	for _, tc := range []struct {
		name   string
		a      AnalysisSpec
		steps  int
		as, os []int
	}{
		{"output on the last step", AnalysisSpec{FM: 100, IM: 3, CM: 20, OM: 7}, 12, []int{4, 8, 12}, []int{8, 12}},
		{"output on every analysis", AnalysisSpec{FM: 100, IM: 3, CM: 20, OM: 7}, 9, []int{3, 6, 9}, []int{3, 6, 9}},
		{"no output", AnalysisSpec{FM: 50, IM: 2, CM: 9, OM: 5}, 10, []int{2, 5, 10}, nil},
		{"memory released each step", AnalysisSpec{FM: 1000, IM: -4, CM: 30, OM: 11}, 10, []int{1, 5, 9}, []int{5}},
		{"empty schedule", AnalysisSpec{FM: 10, IM: 1}, 6, nil, nil},
		{"first step", AnalysisSpec{FM: 10, IM: 1, CM: 5, OM: 2}, 4, []int{1}, []int{1}},
		{"repeats and strays", AnalysisSpec{FM: 10, IM: 1, CM: 5, OM: 2}, 8, []int{0, 2, 2, 6, 9}, []int{-3, 6, 6, 40}},
		{"output without analysis", AnalysisSpec{FM: 10, IM: 1, CM: 5, OM: 2}, 8, []int{2, 6}, []int{4}},
	} {
		// A non-zero start shows the walk adds to what other analyses left.
		got, want := make([]int64, tc.steps+1), make([]int64, tc.steps+1)
		for j := range got {
			got[j], want[j] = int64(1000*j), int64(1000*j)
		}
		mEnd := tc.a.FM
		for j := 1; j <= tc.steps; j++ {
			mStart := mEnd + tc.a.IM
			if listed(tc.as, j) {
				mStart += tc.a.CM
			}
			if listed(tc.os, j) {
				mStart += tc.a.OM
				mEnd = tc.a.FM
			} else {
				mEnd = mStart
			}
			want[j] += mStart
		}
		addStepMemory(got, tc.a, tc.as, tc.os)
		for j := range got {
			if got[j] != want[j] {
				t.Errorf("%s: step %d memory %d, recurrence gives %d", tc.name, j, got[j], want[j])
			}
		}
	}
}
