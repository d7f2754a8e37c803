package core

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"

	"insitu/internal/milp"
)

// ExportLP writes the compact scheduling MILP in CPLEX LP file format, the
// counterpart of the paper's GAMS model file: the exported model can be fed
// to CPLEX/Gurobi/SCIP/glpsol to cross-check this repository's solver.
func ExportLP(w io.Writer, specs []AnalysisSpec, res Resources, opts SolveOptions) error {
	if err := res.Validate(); err != nil {
		return err
	}
	prob, err := CompactModel(specs, res, opts)
	if err != nil {
		return err
	}
	return milp.WriteLP(w, prob)
}

// ThresholdSensitivity reports, for each analysis, the smallest total time
// threshold at which the optimal schedule gains at least one more step of
// that analysis relative to the current recommendation — the §5.3.5
// question ("how much extra threshold buys more analyses?") answered
// exactly by re-solving along a bisection of the threshold axis.
type ThresholdSensitivity struct {
	Name string
	// CurrentCount is |C_i| at the given threshold.
	CurrentCount int
	// NextThreshold is the smallest threshold (within threshold/1e4) at
	// which the optimum schedules more than CurrentCount steps of this
	// analysis; +Inf if even 64 x the threshold does not (e.g. the
	// interval bound is already tight).
	NextThreshold float64
}

// AnalyzeThresholdSensitivity computes the per-analysis next-threshold
// frontier for the given instance. Each analysis's bisection is inherently
// sequential, so the probes fan out across analyses, over at most
// GOMAXPROCS goroutines; every solve runs at the default options, and
// results are ordered and valued identically however many cores run them.
func AnalyzeThresholdSensitivity(specs []AnalysisSpec, res Resources) ([]ThresholdSensitivity, error) {
	if res.TimeThreshold <= 0 {
		return nil, fmt.Errorf("core: sensitivity needs a positive time threshold")
	}
	tol := res.TimeThreshold / 1e4
	base, err := Solve(specs, res, SolveOptions{})
	if err != nil {
		return nil, err
	}

	countAt := func(threshold float64, name string) (int, error) {
		r := res
		r.TimeThreshold = threshold
		rec, err := Solve(specs, r, SolveOptions{})
		if err != nil {
			return 0, err
		}
		return rec.Schedule(name).Count, nil
	}

	analyze := func(s AnalysisSchedule) (ThresholdSensitivity, error) {
		cur := s.Count
		ts := ThresholdSensitivity{Name: s.Name, CurrentCount: cur}
		hi := res.TimeThreshold * 64
		cHi, err := countAt(hi, s.Name)
		if err != nil {
			return ts, err
		}
		if cHi <= cur {
			ts.NextThreshold = math.Inf(1)
			return ts, nil
		}
		lo := res.TimeThreshold
		for hi-lo > tol {
			mid := (lo + hi) / 2
			c, err := countAt(mid, s.Name)
			if err != nil {
				return ts, err
			}
			if c > cur {
				hi = mid
			} else {
				lo = mid
			}
		}
		ts.NextThreshold = hi
		return ts, nil
	}

	out := make([]ThresholdSensitivity, len(base.Schedules))
	errs := make([]error, len(base.Schedules))
	var wg sync.WaitGroup
	next := make(chan int)
	for range min(runtime.GOMAXPROCS(0), len(base.Schedules)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = analyze(base.Schedules[i])
			}
		}()
	}
	for i := range base.Schedules {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
