package core

import (
	"fmt"
	"math"

	"insitu/internal/lp"
	"insitu/internal/milp"
)

// Binding-resource labels reported by Explain. Each names the constraint
// family of §3.2 that stops an enabled analysis from running more often.
const (
	// BindingMinInterval: the analysis already runs every itv_i steps
	// (equation 9); no budget increase can add steps.
	BindingMinInterval = "min-interval"
	// BindingTime: the next step does not fit the remaining time budget
	// (equations 2-4).
	BindingTime = "time-threshold"
	// BindingMemory: the next step does not fit the remaining memory
	// headroom (equations 5-8, in the model's sum-of-peaks form).
	BindingMemory = "memory-threshold"
	// BindingTimeMemory: every candidate mode for the next step violates
	// both thresholds.
	BindingTimeMemory = "time+memory"
	// BindingNone: a further step would fit both budgets — the count is not
	// resource-limited (weight-zero analyses, or headroom freed by a
	// different analysis being disabled).
	BindingNone = "none"
)

// Attribution explains one analysis of a recommendation: for an enabled
// analysis, the resource that pins its frequency and the slack left on it;
// for a disabled one, the counterfactual of forcing it on (objective price,
// or the minimal constraint conflict that makes forcing impossible).
type Attribution struct {
	Name     string
	Enabled  bool
	Count    int
	MaxCount int // Steps / MinInterval, the equation-9 ceiling

	// Enabled analyses: Binding is one of the Binding* labels above,
	// BindingSlack the remaining slack on that resource (seconds for time,
	// bytes for memory, steps-to-ceiling 0 for min-interval), and
	// NextStepCost the cheapest additional time one more analysis step
	// would cost.
	Binding      string
	BindingSlack float64
	NextStepCost float64

	// Disabled analyses: the counterfactual probe re-solves with this
	// analysis forced on. When feasible, ForcedObjective/ForcedDelta price
	// the forced schedule (delta <= 0: what the rest of the schedule gives
	// up) and ForcedCount is the frequency the forced solve grants. When
	// infeasible, ForcedViolation describes the first threshold the
	// cheapest standalone mode breaks and Conflict is the minimal
	// conflicting constraint set from milp.DiagnoseInfeasible.
	ForcedFeasible  bool
	ForcedObjective float64
	ForcedDelta     float64
	ForcedCount     int
	ForcedViolation string
	Conflict        []string
}

// RowReport carries one resource row of the compact model: the shadow price
// from the root LP relaxation's final simplex basis and the activity/slack at
// the integer optimum.
type RowReport struct {
	Name     string
	Dual     float64 // d objective / d RHS of the LP relaxation
	Activity float64 // row activity at the MILP optimum
	RHS      float64
	Slack    float64 // RHS - Activity
	Binding  bool    // Slack within tolerance of zero
}

// Explanation is the decision-observability record of one compact-model
// solve: the recommendation itself plus per-row and per-analysis attribution.
type Explanation struct {
	Rec *Recommendation
	Res Resources

	// Rows reports the model's resource rows (time-threshold and
	// memory-threshold, when present).
	Rows []RowReport
	// TimeSlack is the unused time budget at the optimum (+Inf when the
	// threshold is unset); MemSlack the unused memory headroom in the
	// model's conservative sum-of-peaks terms.
	TimeSlack float64
	MemSlack  float64

	Attributions []Attribution
}

// Attribution returns the entry for the named analysis, or nil.
func (e *Explanation) Attribution(name string) *Attribution {
	for i := range e.Attributions {
		if e.Attributions[i].Name == name {
			return &e.Attributions[i]
		}
	}
	return nil
}

// slackTol treats slacks this close to zero as binding (the threshold values
// come from measured seconds, so exact zeros are rare).
const slackTol = 1e-6

// Explain solves the compact scheduling model and attributes every decision:
// which resource row pins each enabled analysis (via the model's slacks and
// the root relaxation's duals) and what enabling each disabled analysis would
// cost (via forced re-solves, with milp.DiagnoseInfeasible naming the minimal
// conflict when forcing is impossible). opts is used verbatim for the base
// solve — including its Progress hook, which a milp.TreeRecorder can use to
// capture the search tree — and with Progress stripped for the probes.
func Explain(specs []AnalysisSpec, res Resources, opts SolveOptions) (*Explanation, error) {
	rec, err := Solve(specs, res, opts)
	if err != nil {
		return nil, err
	}
	probeOpts := opts
	probeOpts.Progress = nil
	model, err := buildCompactProblem(specs, res, probeOpts, -1)
	if err != nil {
		return nil, err
	}
	prob, norm := &model.prob, model.norm

	ex := &Explanation{Rec: rec, Res: res}

	// Model-level activities at the integer optimum. TotalTime is the time
	// row's activity; the memory row's activity is the sum of per-analysis
	// peaks (conservative by construction, see Solve).
	var sumPeak float64
	for _, s := range rec.Schedules {
		if s.Enabled {
			sumPeak += float64(s.PeakMemory)
		}
	}
	ex.TimeSlack = math.Inf(1)
	if res.TimeThreshold > 0 {
		ex.TimeSlack = res.TimeThreshold - rec.TotalTime
	}
	ex.MemSlack = math.Inf(1)
	if res.MemThreshold > 0 {
		ex.MemSlack = float64(res.MemThreshold) - sumPeak
	}

	// Shadow prices from the root relaxation's final basis.
	relax, err := lp.Solve(prob.LP)
	if err != nil {
		return nil, err
	}
	for r, c := range prob.LP.Constraints {
		if c.Name != "time-threshold" && c.Name != "memory-threshold" {
			continue
		}
		activity := res.TimeThreshold - ex.TimeSlack
		if c.Name == "memory-threshold" {
			activity = sumPeak
		}
		row := RowReport{
			Name:     c.Name,
			Activity: activity,
			RHS:      c.RHS,
			Slack:    c.RHS - activity,
			Binding:  c.RHS-activity <= slackTol*(1+math.Abs(c.RHS)),
		}
		if relax.Status == lp.Optimal && r < len(relax.Duals) {
			row.Dual = relax.Duals[r]
		}
		ex.Rows = append(ex.Rows, row)
	}

	for i, a := range norm {
		s := rec.Schedules[i]
		at := Attribution{
			Name:     a.Name,
			Enabled:  s.Enabled,
			Count:    s.Count,
			MaxCount: res.Steps / a.MinInterval,
		}
		if s.Enabled {
			explainEnabled(&at, a, s, res, ex)
		} else if err := explainDisabled(&at, norm, i, res, probeOpts, rec.Objective); err != nil {
			return nil, err
		}
		ex.Attributions = append(ex.Attributions, at)
	}
	return ex, nil
}

// explainEnabled picks the binding resource for an enabled analysis by
// probing the cheapest modes with one more analysis step against the slacks
// left at the optimum.
func explainEnabled(at *Attribution, a AnalysisSpec, s AnalysisSchedule, res Resources, ex *Explanation) {
	if at.Count >= at.MaxCount {
		at.Binding = BindingMinInterval
		at.BindingSlack = 0
		return
	}
	// Candidate modes with count+1, unpruned: each is a (cost, peak) the
	// schedule could move to.
	curCost := s.PredictedTime
	curPeak := s.PeakMemory
	next := appendCountModes(nil, &a, &res, a.runTime(res), at.Count+1, false)
	if len(next) == 0 {
		// Unreachable for count+1 <= MaxCount, but stay defensive.
		at.Binding = BindingMinInterval
		return
	}
	at.NextStepCost = math.Inf(1)
	fitsTime, fitsMem, fitsBoth := false, false, false
	for _, m := range next {
		dTime := m.cost - curCost
		dMem := float64(m.peakMem - curPeak)
		okT := dTime <= ex.TimeSlack+slackTol
		okM := dMem <= ex.MemSlack+slackTol
		if dTime < at.NextStepCost {
			at.NextStepCost = dTime
		}
		fitsTime = fitsTime || okT
		fitsMem = fitsMem || okM
		fitsBoth = fitsBoth || (okT && okM)
	}
	switch {
	case fitsBoth:
		at.Binding = BindingNone
		at.BindingSlack = ex.TimeSlack
	case fitsMem: // memory would allow it, time blocks every candidate
		at.Binding = BindingTime
		at.BindingSlack = ex.TimeSlack
	case fitsTime:
		at.Binding = BindingMemory
		at.BindingSlack = ex.MemSlack
	default:
		at.Binding = BindingTimeMemory
		at.BindingSlack = ex.TimeSlack
	}
}

// explainDisabled runs the counterfactual probe for a disabled analysis:
// re-solve with it forced on (modes unpruned) and report either the
// objective price or the minimal infeasible constraint set.
func explainDisabled(at *Attribution, norm []AnalysisSpec, i int, res Resources, opts SolveOptions, baseObjective float64) error {
	model, err := buildCompactProblem(norm, res, opts, i)
	if err != nil {
		return err
	}
	prob, tab := &model.prob, model.tab
	sol, _, err := solveModel("forced probe", prob, opts)
	switch {
	case sol == nil: // the solver itself failed
		return err
	case err == nil:
		at.ForcedFeasible = true
		at.ForcedObjective = sol.Objective
		at.ForcedDelta = sol.Objective - baseObjective
		if m, ok := tab.chosen(i, sol.X); ok {
			at.ForcedCount = m.count
		}
		return nil
	case sol.Status != milp.Infeasible:
		return fmt.Errorf("core: forced probe for %q ended %v", norm[i].Name, sol.Status)
	}
	at.ForcedViolation = standaloneViolation(norm[i], res)
	conflict, err := milp.DiagnoseInfeasible(prob, opts.milpOptions())
	if err != nil {
		return err
	}
	at.Conflict = conflict.Names
	return nil
}

// standaloneViolation describes why even the cheapest standalone mode of a
// cannot run: which threshold its minimal (count=1) configuration breaks, or
// the interval ceiling when no mode exists at all.
func standaloneViolation(a AnalysisSpec, res Resources) string {
	if res.Steps/a.MinInterval < 1 {
		return fmt.Sprintf("min-interval: %d steps < interval %d, no analysis step fits", res.Steps, a.MinInterval)
	}
	minCost := math.Inf(1)
	minPeak := int64(math.MaxInt64)
	for _, m := range appendCountModes(nil, &a, &res, a.runTime(res), 1, false) {
		if m.cost < minCost {
			minCost = m.cost
		}
		if m.peakMem < minPeak {
			minPeak = m.peakMem
		}
	}
	if res.TimeThreshold > 0 && minCost > res.TimeThreshold {
		return fmt.Sprintf("time-threshold: cheapest mode needs %.3fs > budget %.3fs", minCost, res.TimeThreshold)
	}
	if res.MemThreshold > 0 && minPeak > res.MemThreshold {
		return fmt.Sprintf("memory-threshold: cheapest mode needs %d B > ceiling %d B", minPeak, res.MemThreshold)
	}
	return "forced membership conflicts with the thresholds only in combination"
}
