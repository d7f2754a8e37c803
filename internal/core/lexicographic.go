package core

import (
	"fmt"
	"sort"
)

// SolveLexicographic treats importance weights as strict priority classes:
// analyses sharing the highest weight are scheduled first (maximizing their
// analysis counts within the full envelope), then the next class is
// scheduled in the budget that remains, and so on. This is how the paper's
// Table 8 behaves: under weights (2,1,2) its solver returns F1=5, F2=0,
// F3=10 — a schedule that is dominated under a linear |A| + Σ w|C| objective
// by the equal-weight solution (1,10,10), but is exactly what prioritizing
// {F1,F3} over {F2} lexicographically produces. (GAMS/CPLEX variable
// priorities have this effect.) Solve remains the linear-objective variant;
// both are exact for their respective semantics.
func SolveLexicographic(specs []AnalysisSpec, res Resources, opts SolveOptions) (*Recommendation, error) {
	if err := res.Validate(); err != nil {
		return nil, err
	}
	norm, err := normalizeSpecs(specs)
	if err != nil {
		return nil, err
	}

	// Distinct weights, descending: each is one priority class.
	weightSet := map[float64]bool{}
	for _, a := range norm {
		weightSet[a.Weight] = true
	}
	weights := make([]float64, 0, len(weightSet))
	for w := range weightSet {
		weights = append(weights, w)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(weights)))

	out := &Recommendation{Schedules: make([]AnalysisSchedule, len(norm))}
	for i, a := range norm {
		out.Schedules[i] = AnalysisSchedule{Name: a.Name}
	}
	timeLeft := res.TimeThreshold
	memLeft := res.MemThreshold

	for _, w := range weights {
		var classSpecs []AnalysisSpec
		var classIdx []int
		for i, a := range norm {
			if a.Weight == w {
				s := a
				s.Weight = 1 // within a class, counts are equally valuable
				classSpecs = append(classSpecs, s)
				classIdx = append(classIdx, i)
			}
		}
		classRes := Resources{
			Steps:         res.Steps,
			TimeThreshold: timeLeft,
			MemThreshold:  memLeft,
			Bandwidth:     res.Bandwidth,
		}
		// A zero threshold means "unconstrained" in Resources, so when the
		// original budget exists but is exhausted, pass a vanishing positive
		// budget instead: only zero-cost modes remain schedulable.
		if res.TimeThreshold > 0 && classRes.TimeThreshold < 1e-12 {
			classRes.TimeThreshold = 1e-12
		}
		rec, err := Solve(classSpecs, classRes, opts)
		if err != nil {
			return nil, fmt.Errorf("core: lexicographic class w=%g: %w", w, err)
		}
		for k, i := range classIdx {
			s := rec.Schedules[k]
			out.Schedules[i] = s
			if s.Enabled {
				out.Objective += 1 + norm[i].Weight*float64(s.Count)
				out.TotalTime += s.PredictedTime
				timeLeft -= s.PredictedTime
				if memLeft > 0 {
					memLeft -= s.PeakMemory
					if memLeft < 1 {
						memLeft = 1 // keep the reduced envelope valid
					}
				}
			}
		}
		out.SolveTime += rec.SolveTime
		out.Stats.Add(&rec.Stats)
	}
	return out.validated("lexicographic", specs, res)
}
