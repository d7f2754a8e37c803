package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"insitu/internal/lp"
	"insitu/internal/milp"
	"insitu/internal/obs"
)

// SolveOptions tune the MILP search.
type SolveOptions struct {
	// MaxNodes caps branch-and-bound nodes (default: milp's default).
	MaxNodes int
	// MaxCount caps the modes enumerated per analysis; 0 uses the natural
	// bound Steps/MinInterval.
	MaxCount int
	// Observer, when non-nil, streams one event per explored
	// branch-and-bound node; the telemetry layer uses it to trace the
	// search. Events stay serialized in deterministic order at any worker
	// count.
	Observer func(milp.NodeEvent)
	// Flight, when non-nil, captures the solver flight stream (start /
	// per-wave / incumbent / end progress samples) into the recorder's ring
	// buffer; drain it to a ledger, trace, or the /solve pages afterwards.
	Flight *obs.FlightRecorder
	// Progress overrides the flight hookup with a raw callback on every
	// solver progress event; when set, Flight is ignored. Like Observer it
	// runs synchronously on the sequential consume path.
	Progress func(milp.ProgressEvent)
	// Workers is the branch-and-bound wave width (see milp.Options.Workers;
	// 0 and 1 both mean a wave of one). The objective and bound are
	// identical at any width.
	Workers int
	// NoWarmStart solves every node relaxation cold instead of from its
	// parent's basis (see milp.Options.NoWarmStart); by default nodes are
	// warm at every width.
	NoWarmStart bool
	// Ctx, when non-nil, scopes the solve to a caller's lifetime: the search
	// aborts with an error wrapping milp.ErrCanceled once it is canceled, and
	// request-scoped pprof labels on it survive into solver CPU profiles (see
	// milp.Options.Ctx).
	Ctx context.Context
}

// milpOptions translates the core options into solver options.
func (o SolveOptions) milpOptions() milp.Options {
	return milp.Options{
		MaxNodes:    o.MaxNodes,
		Observer:    o.Observer,
		Progress:    o.progressFunc(),
		Workers:     o.Workers,
		NoWarmStart: o.NoWarmStart,
		Ctx:         o.Ctx,
	}
}

// solveModel runs branch and bound on a built model and times it. A solve
// that ends with nothing to extract — anything but proven optimality or a
// node-limit incumbent — is an error naming the model; sol is still returned
// with it so a caller can tell infeasibility from the other outcomes.
func solveModel(model string, prob *milp.Problem, opts SolveOptions) (sol *milp.Solution, elapsed time.Duration, err error) {
	start := time.Now()
	sol, err = milp.Solve(prob, opts.milpOptions())
	elapsed = time.Since(start)
	if err != nil {
		return nil, elapsed, err
	}
	if sol.Status != milp.Optimal && !(sol.Status == milp.NodeLimit && sol.HasX) {
		return sol, elapsed, fmt.Errorf("core: %s solve failed: %v", model, sol.Status)
	}
	return sol, elapsed, nil
}

// mode is one candidate (count, output-stride) schedule for an analysis.
type mode struct {
	count   int
	k       int // output after every k-th analysis step
	outputs int
	cost    float64
	peakMem int64
}

// enumerateModes lists every feasible (count, k) pair for one analysis:
// count from 1 to Steps/itv, k from 1 to count. Modes whose standalone cost
// already exceeds the thresholds are pruned.
func enumerateModes(a AnalysisSpec, res Resources, maxCount int) []mode {
	return enumerateModesPruned(a, res, maxCount, true)
}

// enumerateModesPruned is enumerateModes with the threshold pruning
// switchable: the explainability layer enumerates unpruned modes when forcing
// a disabled analysis on, so the infeasibility diagnosis can name the
// threshold row that excludes every mode (rather than meeting a model the
// modes were silently pruned from).
func enumerateModesPruned(a AnalysisSpec, res Resources, maxCount int, prune bool) []mode {
	bound := res.Steps / a.MinInterval
	if maxCount > 0 && bound > maxCount {
		bound = maxCount
	}
	var out []mode
	for count := 1; count <= bound; count++ {
		as := expandSteps(res.Steps, count)
		kMin := 1
		if a.OutputOptional {
			kMin = 0 // k = 0: never output
		}
		for k := kMin; k <= count; k++ {
			os := expandOutputs(as, k)
			m := mode{
				count:   count,
				k:       k,
				outputs: len(os),
				cost:    modeCost(a, res, count, len(os)),
				peakMem: modePeakMemory(a, res.Steps, as, os),
			}
			if prune && res.TimeThreshold > 0 && m.cost > res.TimeThreshold {
				continue
			}
			if prune && res.MemThreshold > 0 && m.peakMem > res.MemThreshold {
				continue
			}
			// Dominance pruning: for equal count, keep only the cheapest
			// (cost, mem) frontier over k. A mode dominated in both cost and
			// peak memory by another same-count mode can never be optimal.
			dominated := false
			for _, e := range out {
				if e.count == count && e.cost <= m.cost && e.peakMem <= m.peakMem {
					dominated = true
					break
				}
			}
			if !dominated {
				out = append(out, m)
			}
		}
	}
	return out
}

// compactRef records which analysis and mode a compact-model binary selects.
type compactRef struct {
	analysis int
	m        mode
}

// buildCompactProblem constructs the compact mode-based MILP over the
// normalized specs. It is shared by Solve and ExportLP.
func buildCompactProblem(norm []AnalysisSpec, res Resources, opts SolveOptions) (*milp.Problem, []compactRef) {
	return buildCompactProblemForced(norm, res, opts, -1)
}

// buildCompactProblemForced builds the compact model with one twist used by
// the counterfactual probes in Explain: when force is a valid analysis index,
// that analysis gets a "force[name] >= 1" membership row and its modes are
// enumerated without threshold pruning, so an impossible forced enablement
// shows up as an infeasibility between the force row and the threshold rows
// instead of a silently empty mode set.
func buildCompactProblemForced(norm []AnalysisSpec, res Resources, opts SolveOptions, force int) (*milp.Problem, []compactRef) {
	prob := milp.NewProblem(&lp.Problem{})
	var refs []compactRef
	var cols []int // every column, in order: the time and memory rows span them all
	var timeCoef, memCoef []float64
	perAnalysis := make([][]int, len(norm))

	for i, a := range norm {
		for _, m := range enumerateModesPruned(a, res, opts.MaxCount, i != force) {
			// Objective: enabling contributes 1 (membership in A) plus
			// w_i per analysis step.
			obj := 1 + a.Weight*float64(m.count)
			j := prob.AddBinVar(obj, fmt.Sprintf("x[%s,n=%d,k=%d]", a.Name, m.count, m.k))
			refs = append(refs, compactRef{analysis: i, m: m})
			perAnalysis[i] = append(perAnalysis[i], j)
			cols = append(cols, j)
			timeCoef = append(timeCoef, m.cost)
			memCoef = append(memCoef, float64(m.peakMem))
		}
	}

	// One run of ones serves every membership row: AddConstraint copies.
	ones := make([]float64, len(refs))
	for k := range ones {
		ones[k] = 1
	}
	for i, vars := range perAnalysis {
		if len(vars) == 0 {
			continue
		}
		prob.LP.AddConstraint(vars, ones[:len(vars)], lp.LE, 1, fmt.Sprintf("one-mode[%s]", norm[i].Name))
	}
	if res.TimeThreshold > 0 && len(cols) > 0 {
		prob.LP.AddConstraint(cols, timeCoef, lp.LE, res.TimeThreshold, "time-threshold")
	}
	if res.MemThreshold > 0 && len(cols) > 0 {
		prob.LP.AddConstraint(cols, memCoef, lp.LE, float64(res.MemThreshold), "memory-threshold")
	}
	if force >= 0 && force < len(norm) {
		vars := perAnalysis[force]
		// With no modes at all (Steps < MinInterval) this is an always-false
		// zero row, which is exactly the diagnosis: the forced membership
		// itself is unsatisfiable.
		prob.LP.AddConstraint(vars, ones[:len(vars)], lp.GE, 1, fmt.Sprintf("force[%s]", norm[force].Name))
	}
	return prob, refs
}

// CompactNames returns the variable names of the compact model, in variable
// order. A milp.TreeRecorder observing a Solve over the same inputs labels its
// branch edges with these names (the model itself is built inside Solve, out
// of the caller's reach).
func CompactNames(specs []AnalysisSpec, res Resources, opts SolveOptions) ([]string, error) {
	norm, err := normalizeSpecs(specs)
	if err != nil {
		return nil, err
	}
	prob, _ := buildCompactProblem(norm, res, opts)
	return append([]string(nil), prob.LP.Names...), nil
}

// normalizeSpecs validates and defaults a spec list.
func normalizeSpecs(specs []AnalysisSpec) ([]AnalysisSpec, error) {
	norm := make([]AnalysisSpec, len(specs))
	for i, a := range specs {
		if err := a.Validate(); err != nil {
			return nil, err
		}
		norm[i] = a.withDefaults()
	}
	return norm, nil
}

// Solve recommends the optimal in-situ schedule using the compact mode-based
// MILP. Each analysis selects at most one mode; the time row enforces
// equation 4 exactly, and the memory row conservatively bounds equation 8 by
// the sum of per-analysis peaks (a safe over-approximation — the returned
// schedule is re-validated against the exact per-step recurrence).
func Solve(specs []AnalysisSpec, res Resources, opts SolveOptions) (*Recommendation, error) {
	if err := res.Validate(); err != nil {
		return nil, err
	}
	norm, err := normalizeSpecs(specs)
	if err != nil {
		return nil, err
	}
	prob, refs := buildCompactProblem(norm, res, opts)
	sol, elapsed, err := solveModel("compact model", prob, opts)
	if err != nil {
		return nil, err
	}

	rec := &Recommendation{SolveTime: elapsed, Nodes: sol.Nodes, Stats: sol.Stats}
	chosen := make(map[int]mode)
	for v, ref := range refs {
		if sol.HasX && sol.X[v] > 0.5 {
			chosen[ref.analysis] = ref.m
		}
	}
	for i, a := range norm {
		m, ok := chosen[i]
		if !ok {
			rec.Schedules = append(rec.Schedules, AnalysisSchedule{Name: a.Name})
			continue
		}
		s := buildSchedule(a, res, m.count, m.k)
		rec.Schedules = append(rec.Schedules, s)
		rec.Objective += 1 + a.Weight*float64(m.count)
		rec.TotalTime += s.PredictedTime
	}
	rec.PeakMemory = exactPeakMemory(norm, res, rec.Schedules)
	if err := rec.Validate(specs, res); err != nil {
		return nil, fmt.Errorf("core: compact solution failed validation: %w", err)
	}
	return rec, nil
}

// exactPeakMemory computes max_j Σ_i mStart_{i,j} for the concrete
// schedules (equation 8's left-hand side).
func exactPeakMemory(specs []AnalysisSpec, res Resources, schedules []AnalysisSchedule) int64 {
	mem := make([]int64, res.Steps+1)
	byName := map[string]AnalysisSpec{}
	for _, a := range specs {
		byName[a.Name] = a.withDefaults()
	}
	for _, s := range schedules {
		if !s.Enabled {
			continue
		}
		addStepMemory(mem, byName[s.Name], s.AnalysisSteps, s.OutputSteps)
	}
	var peak int64
	for j := 1; j <= res.Steps; j++ {
		if mem[j] > peak {
			peak = mem[j]
		}
	}
	return peak
}

// BruteForceSolve enumerates every mode combination (exponential) and
// returns the best recommendation under the exact per-step memory
// constraint. It exists to validate Solve on small instances in tests.
func BruteForceSolve(specs []AnalysisSpec, res Resources) (*Recommendation, error) {
	if err := res.Validate(); err != nil {
		return nil, err
	}
	norm, err := normalizeSpecs(specs)
	if err != nil {
		return nil, err
	}
	modes := make([][]mode, len(norm))
	for i, a := range norm {
		modes[i] = append([]mode{{}}, enumerateModes(a, res, 0)...) // {} = disabled
	}

	best := &Recommendation{Objective: math.Inf(-1)}
	pick := make([]mode, len(specs))
	var rec func(i int)
	rec = func(i int) {
		if i == len(specs) {
			cand := &Recommendation{}
			for j, m := range pick {
				if m.count == 0 {
					cand.Schedules = append(cand.Schedules, AnalysisSchedule{Name: norm[j].Name})
					continue
				}
				s := buildSchedule(norm[j], res, m.count, m.k)
				cand.Schedules = append(cand.Schedules, s)
				cand.Objective += 1 + norm[j].Weight*float64(m.count)
				cand.TotalTime += s.PredictedTime
			}
			if cand.Validate(specs, res) != nil {
				return
			}
			cand.PeakMemory = exactPeakMemory(norm, res, cand.Schedules)
			if cand.Objective > best.Objective {
				best = cand
			}
			return
		}
		for _, m := range modes[i] {
			pick[i] = m
			rec(i + 1)
		}
	}
	rec(0)
	if math.IsInf(best.Objective, -1) {
		return nil, fmt.Errorf("core: no feasible schedule")
	}
	return best, nil
}
