package core

import (
	"context"
	"fmt"
	"math"
	"sync"
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
	// Progress, when non-nil, receives the solver flight stream (see
	// milp.Options.Progress): a milp.TreeRecorder or a tracer reads the
	// search from its node records. Records stay serialized in
	// deterministic order at any worker count.
	Progress func(obs.SolveProgress)
	// Flight, when non-nil, captures the same stream into the recorder's
	// ring buffer; drain it to a ledger, trace, or the /solve pages
	// afterwards.
	Flight *obs.FlightRecorder
	// Workers is the branch-and-bound wave width (see milp.Options.Workers;
	// 0 and 1 both mean a wave of one). The objective and bound are
	// identical at any width. Programs leave it at the default; only the
	// benchmark harness, perfbench, solvercheck and the determinism tests
	// set it.
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

// milpOptions translates the core options into solver options. milp gets
// one progress hook: Flight.Record, Progress, or both in that order. With
// neither set, an unrecorded solve builds no flight records at all.
func (o SolveOptions) milpOptions() milp.Options {
	opts := milp.Options{
		MaxNodes:    o.MaxNodes,
		Progress:    o.Progress,
		Workers:     o.Workers,
		NoWarmStart: o.NoWarmStart,
		Ctx:         o.Ctx,
	}
	if fr, progress := o.Flight, o.Progress; fr != nil && progress != nil {
		opts.Progress = func(p obs.SolveProgress) {
			fr.Record(p)
			progress(p)
		}
	} else if fr != nil {
		opts.Progress = fr.Record
	}
	return opts
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
	cost    float64
	peakMem int64
}

// modeTable holds every analysis' kept modes in one slice, in column order:
// analysis i owns modes[start[i]:start[i+1]], and mode v is column v of the
// compact model built from the table.
type modeTable struct {
	modes []mode
	start []int
}

// chosen returns the mode of analysis i that solution x selects, if any.
func (t modeTable) chosen(i int, x []float64) (m mode, ok bool) {
	for v := t.start[i]; v < t.start[i+1]; v++ {
		if x[v] > 0.5 {
			m, ok = t.modes[v], true
		}
	}
	return m, ok
}

// enumerateModes lists every feasible (count, k) pair for one analysis:
// count from 1 to Steps/itv, k from 1 to count. Modes whose standalone cost
// already exceeds the thresholds are pruned.
func enumerateModes(a AnalysisSpec, res Resources, maxCount int) []mode {
	out, _ := appendModes(nil, nil, a, res, maxCount, true) // no context, no error
	return out
}

// countBound is the largest count enumerated for a: the interval ceiling
// Steps/itv of equation 9, or the caller's MaxCount when that is lower.
func countBound(a AnalysisSpec, res Resources, maxCount int) int {
	bound := res.Steps / a.MinInterval
	if maxCount > 0 && bound > maxCount {
		bound = maxCount
	}
	return bound
}

// modeBound bounds the modes appendModes can keep for a, so that the table is
// sized once. It is only a capacity — were it ever short, append would
// grow the table.
func modeBound(a AnalysisSpec, res Resources, maxCount int) int {
	total := 0
	for count, bound := 1, countBound(a, res, maxCount); count <= bound; count++ {
		total += countModeBound(a, count)
	}
	return total
}

// countModeBound bounds the modes kept with exactly count analysis steps.
// Same-count modes with equally many outputs tie on cost and the smallest
// stride among them has the lowest peak, so dominance keeps at most one mode
// per distinct ceil(count/k): with r = floor(sqrt(count-1)) that is 2r+1
// values, one fewer when r(r+1) > count-1; k = 0 adds one.
func countModeBound(a AnalysisSpec, count int) int {
	r := int(math.Sqrt(float64(count - 1)))
	n := 2*r + 1
	if r*(r+1) > count-1 {
		n--
	}
	if a.OutputOptional {
		n++
	}
	return n
}

// EstimateColumns bounds from above the columns of the compact model Solve
// would build for specs, without building anything: a caller that must refuse
// oversized work (schedd, before it grants a solver slot) compares it with its
// limit. Counting stops as soon as the total passes limit, so the cost is
// O(limit) however large Steps is; a result above limit means "too many", not
// how many.
func EstimateColumns(specs []AnalysisSpec, res Resources, limit int) int {
	total := 0
	for _, a := range specs {
		a = a.withDefaults()
		for count, bound := 1, countBound(a, res, 0); count <= bound && total <= limit; count++ {
			total += countModeBound(a, count)
		}
	}
	return total
}

// appendModes appends the modes of one analysis to out, count by count. The
// threshold pruning is switchable: the explainability layer enumerates
// unpruned modes when forcing a disabled analysis on, so the infeasibility
// diagnosis can name the threshold row that excludes every mode (rather than
// meeting a model the modes were silently pruned from). The candidates number
// O((Steps/itv)²), so a non-nil ctx is checked once per count and, once
// cancelled, ends the enumeration with an error wrapping milp.ErrCanceled.
func appendModes(ctx context.Context, out []mode, a AnalysisSpec, res Resources, maxCount int, prune bool) ([]mode, error) {
	rt := a.runTime(res)
	for count, bound := 1, countBound(a, res, maxCount); count <= bound; count++ {
		if ctx != nil && ctx.Err() != nil {
			return nil, fmt.Errorf("core: %w while enumerating modes of %q: %v", milp.ErrCanceled, a.Name, ctx.Err())
		}
		out = appendCountModes(out, &a, &res, rt, count, prune)
	}
	return out, nil
}

// appendCountModes appends the modes with exactly count analysis steps
// (count <= Steps/itv): k from 1 to count, and k = 0, never output, when
// outputs are optional. Candidates are priced by arithmetic, from a's run
// time rt; step lists are built once, by buildSchedule, for the mode the
// solver chose. a and res are read, never copied, per candidate.
func appendCountModes(out []mode, a *AnalysisSpec, res *Resources, rt runTime, count int, prune bool) []mode {
	run := len(out) // where this count's modes start
	kMin := 1
	if a.OutputOptional {
		kMin = 0
	}
	for k := kMin; k <= count; k++ {
		outputs, peak := modeOutputsPeak(a, res.Steps, count, k)
		m := mode{count: count, k: k, cost: rt.cost(count, outputs), peakMem: peak}
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
		for _, e := range out[run:] {
			if e.cost <= m.cost && e.peakMem <= m.peakMem {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, m)
		}
	}
	return out
}

// compactModel is the compact model of one spec list: the normalized specs,
// the mode table, the model built over it, and the arrays they all live in.
// Models come from modelPool and are built over the arrays the pooled model
// held; Solve gives its model back once the answer is validated, and the
// callers that keep the model (CompactModel, Explain) never do.
type compactModel struct {
	norm []AnalysisSpec
	tab  modeTable
	prob milp.Problem
	lp   lp.Problem
	// Row storage: every column in order, and the coefficients of the
	// one-mode, time and memory rows.
	cols                    []int
	ones, timeCoef, memCoef []float64
}

// modelPool holds compact models between solves.
var modelPool = sync.Pool{New: func() any { return new(compactModel) }}

// buildCompactProblem normalizes specs and constructs the compact mode-based
// MILP over them: the one model Solve solves, CompactNames and ExportLP name,
// and Explain probes. force is -1 except in Explain's counterfactual probes,
// where it is the index of an analysis that gets a "force[name] >= 1"
// membership row and whose modes are enumerated without threshold pruning, so
// an impossible forced enablement shows up as an infeasibility between the
// force row and the threshold rows instead of a silently empty mode set.
//
// The mode table is completed first, so every model array is sized once, at
// its final size. Rows share storage: a membership row is a window of the one
// ascending column list and the one run of ones, the time and memory rows are
// that column list whole — safe because rows are read-only once built (see
// lp.Constraint). Columns carry no names: solving reads none, and
// CompactModel adds them for the callers that show them.
func buildCompactProblem(specs []AnalysisSpec, res Resources, opts SolveOptions, force int) (*compactModel, error) {
	m := modelPool.Get().(*compactModel)
	norm, err := appendNormalized(m.norm[:0], specs)
	if err != nil {
		modelPool.Put(m)
		return nil, err
	}
	capacity := 0
	for _, a := range norm {
		capacity += modeBound(a, res, opts.MaxCount)
	}
	tab := modeTable{modes: lp.Resize(m.tab.modes, capacity)[:0], start: lp.Resize(m.tab.start, len(norm)+1)}
	for i, a := range norm {
		if tab.modes, err = appendModes(opts.Ctx, tab.modes, a, res, opts.MaxCount, i != force); err != nil {
			modelPool.Put(m)
			return nil, err
		}
		tab.start[i+1] = len(tab.modes)
	}

	n := len(tab.modes)
	m.norm, m.tab = norm, tab
	m.lp = lp.Problem{
		Objective:   lp.Resize(m.lp.Objective, n),
		Lower:       lp.Resize(m.lp.Lower, n),
		Upper:       lp.Resize(m.lp.Upper, n),
		Constraints: lp.Resize(m.lp.Constraints, len(norm)+3)[:0],
	}
	m.prob = milp.Problem{LP: &m.lp, Integer: lp.Resize(m.prob.Integer, n)}
	p, prob := &m.lp, &m.prob
	m.cols, m.ones = lp.Resize(m.cols, n), lp.Resize(m.ones, n)
	m.timeCoef, m.memCoef = lp.Resize(m.timeCoef, n), lp.Resize(m.memCoef, n)
	cols, ones, timeCoef, memCoef := m.cols, m.ones, m.timeCoef, m.memCoef
	for i, a := range norm {
		for v := tab.start[i]; v < tab.start[i+1]; v++ {
			md := &tab.modes[v]
			// Objective: enabling contributes 1 (membership in A) plus
			// w_i per analysis step.
			p.Objective[v] = 1 + a.Weight*float64(md.count)
			p.Upper[v] = 1
			prob.Integer[v] = true
			cols[v], ones[v] = v, 1
			timeCoef[v], memCoef[v] = md.cost, float64(md.peakMem)
		}
	}

	// membership is analysis i's window of the shared arrays, capped so that
	// not even an append to it can reach the next analysis' columns.
	membership := func(i int, sense lp.Sense, name string) lp.Constraint {
		lo, hi := tab.start[i], tab.start[i+1]
		return lp.Constraint{Idx: cols[lo:hi:hi], Coef: ones[lo:hi:hi], Sense: sense, RHS: 1, Name: name + "[" + norm[i].Name + "]"}
	}
	for i := range norm {
		if tab.start[i+1] > tab.start[i] {
			p.Constraints = append(p.Constraints, membership(i, lp.LE, "one-mode"))
		}
	}
	if force < 0 {
		p.Classes = len(p.Constraints) // the one-mode rows (see lp.Problem)
	}
	if res.TimeThreshold > 0 && n > 0 {
		p.Constraints = append(p.Constraints, lp.Constraint{Idx: cols, Coef: timeCoef, Sense: lp.LE, RHS: res.TimeThreshold, Name: "time-threshold"})
	}
	if res.MemThreshold > 0 && n > 0 {
		p.Constraints = append(p.Constraints, lp.Constraint{Idx: cols, Coef: memCoef, Sense: lp.LE, RHS: float64(res.MemThreshold), Name: "memory-threshold"})
	}
	if force >= 0 && force < len(norm) {
		// With no modes at all (Steps < MinInterval) this is an always-false
		// zero row, which is exactly the diagnosis: the forced membership
		// itself is unsatisfiable.
		p.Constraints = append(p.Constraints, membership(force, lp.GE, "force"))
	}
	return m, nil
}

// CompactModel returns the compact model Solve builds for the same inputs,
// each column named after the mode it selects (Solve itself names none).
func CompactModel(specs []AnalysisSpec, res Resources, opts SolveOptions) (*milp.Problem, error) {
	m, err := buildCompactProblem(specs, res, opts, -1)
	if err != nil {
		return nil, err
	}
	m.lp.Names = make([]string, len(m.tab.modes))
	for i, a := range m.norm {
		for v := m.tab.start[i]; v < m.tab.start[i+1]; v++ {
			m.lp.Names[v] = fmt.Sprintf("x[%s,n=%d,k=%d]", a.Name, m.tab.modes[v].count, m.tab.modes[v].k)
		}
	}
	return &m.prob, nil
}

// CompactNames returns the variable names of the compact model, in variable
// order. A milp.TreeRecorder observing a Solve over the same inputs labels its
// branch edges with these names (the model itself is built inside Solve, out
// of the caller's reach).
func CompactNames(specs []AnalysisSpec, res Resources, opts SolveOptions) ([]string, error) {
	prob, err := CompactModel(specs, res, opts)
	if err != nil {
		return nil, err
	}
	return prob.LP.Names, nil
}

// normalizeSpecs validates and defaults a spec list.
func normalizeSpecs(specs []AnalysisSpec) ([]AnalysisSpec, error) {
	return appendNormalized(make([]AnalysisSpec, 0, len(specs)), specs)
}

// appendNormalized appends the validated, defaulted specs to dst.
func appendNormalized(dst, specs []AnalysisSpec) ([]AnalysisSpec, error) {
	if err := ValidateSpecs(specs); err != nil {
		return nil, err
	}
	for _, a := range specs {
		dst = append(dst, a.withDefaults())
	}
	return dst, nil
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
	cm, err := buildCompactProblem(specs, res, opts, -1)
	if err != nil {
		return nil, err
	}
	defer modelPool.Put(cm) // after validated: nothing returned points into it
	sol, elapsed, err := solveModel("compact model", &cm.prob, opts)
	if err != nil {
		return nil, err
	}

	rec := &Recommendation{SolveTime: elapsed, Stats: sol.Stats, Schedules: make([]AnalysisSchedule, len(cm.norm))}
	for i, a := range cm.norm {
		m, ok := cm.tab.chosen(i, sol.X)
		if !ok {
			rec.Schedules[i] = AnalysisSchedule{Name: a.Name}
			continue
		}
		s := buildSchedule(a, res, m.count, m.k)
		rec.Schedules[i] = s
		rec.Objective += 1 + a.Weight*float64(m.count)
		rec.TotalTime += s.PredictedTime
	}
	return rec.validated("compact", specs, res)
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
	best.PeakMemory, _ = best.check(specs, res) // validated above
	return best, nil
}
