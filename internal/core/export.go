package core

import (
	"fmt"
	"io"
	"math"
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
// frontier for the given instance. It probes up to opts.Workers analyses
// concurrently (serial at 0 or 1): each analysis's bisection is inherently
// sequential, so the fan-out is across analyses, and results are ordered
// and valued identically at any width.
func AnalyzeThresholdSensitivity(specs []AnalysisSpec, res Resources, opts SolveOptions) ([]ThresholdSensitivity, error) {
	if res.TimeThreshold <= 0 {
		return nil, fmt.Errorf("core: sensitivity needs a positive time threshold")
	}
	tol := res.TimeThreshold / 1e4
	base, err := Solve(specs, res, opts)
	if err != nil {
		return nil, err
	}

	// Probe re-solves are throwaway what-if evaluations: they never see the
	// caller's observer, which keeps the trace clean and the fan-out below
	// race-free.
	probeOpts := opts
	probeOpts.Observer = nil

	countAt := func(threshold float64, name string) (int, error) {
		r := res
		r.TimeThreshold = threshold
		rec, err := Solve(specs, r, probeOpts)
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
	w := min(opts.Workers, len(base.Schedules))
	if w <= 1 {
		for i, s := range base.Schedules {
			if out[i], err = analyze(s); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	errs := make([]error, len(base.Schedules))
	var wg sync.WaitGroup
	next := make(chan int)
	for g := 0; g < w; g++ {
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
