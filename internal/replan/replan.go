// Package replan closes the loop the paper leaves open: the MILP schedules
// once, up front, from profiled costs (§4), and runmon (PR 6) detects when
// those profiles drift mid-run — this package acts on the detection. A
// Replanner subscribes to the monitor's drift and budget alerts, rescales the
// remaining-horizon cost model from the observed residuals, re-solves the
// remaining-horizon MILP with the same core/milp stack the up-front solve
// used, and — behind hysteresis so noise never triggers replan storms —
// swaps the adapted schedule into the running coupling loop. Every decision
// (adopted or not) is emitted as a schema-versioned "replan" ledger event, so
// runmon and schedexplain can render the replan timeline post hoc.
//
// The rolling-horizon formulation: at decision step j with R = Steps-j steps
// left and B = budget - spent seconds of analysis budget remaining, solve the
// original MILP over Steps'=R, TimeThreshold'=B·headroom, with per-analysis
// costs scaled by each residual stream's observed inflation (1 + EWMA of
// relative error) and setup times zeroed for analyses already running. The
// solution's step indices are shifted by +j back into run coordinates.
package replan

import (
	"fmt"
	"sync"

	"insitu/internal/core"
	"insitu/internal/obs"
	"insitu/internal/runmon"
)

const (
	// maxReplans caps adopted replans per run.
	maxReplans = 8
	// minFactor and maxFactor clamp the per-stream rescale factors: a
	// single wild residual cannot push the cost model into nonsense.
	minFactor, maxFactor = 0.25, 4
)

// Config tunes a Replanner. The zero value is usable: every field defaults
// to the value documented on it.
type Config struct {
	// Cooldown is the minimum number of simulation steps between replan
	// decisions (default 10). Alerts arriving inside the cooldown stay
	// pending and are decided at the first step outside it.
	Cooldown int
	// MinImprove is the minimum-improvement gate (default 0.05): a re-solve
	// replaces a still-feasible incumbent only when its remaining-horizon
	// objective beats the incumbent's by this fraction. An incumbent that no
	// longer fits the remaining budget is always replaced.
	MinImprove float64
	// BudgetPercent, when > 0, declares that the run's analysis budget
	// tracks realized simulation time (the §5.3.2 percent-threshold use
	// case): the effective total budget is BudgetPercent% of observed plus
	// projected simulation seconds, so a slower simulation grants more
	// analysis time. Zero treats Resources.TimeThreshold as absolute.
	BudgetPercent float64
	// Headroom discounts the remaining budget handed to the re-solve
	// (default 0.95), absorbing observation noise so adapted schedules do
	// not land exactly on the threshold.
	Headroom float64
	// Ledger, when non-nil, receives every replan event and, on adoption,
	// the adapted profile's plan events.
	Ledger *obs.EventLog
	// Emit, when non-nil, additionally receives every event the replanner
	// produces; the closed-loop simulator uses it to collect the event
	// stream without a ledger file.
	Emit func(obs.LedgerEvent)
	// Metrics, when non-nil, exports replan_total{reason=...} counters.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Cooldown <= 0 {
		c.Cooldown = 10
	}
	if c.MinImprove <= 0 {
		c.MinImprove = 0.05
	}
	if c.Headroom <= 0 || c.Headroom > 1 {
		c.Headroom = 0.95
	}
	return c
}

// Replanner is the drift-adaptive rolling-horizon rescheduler. Safe for
// concurrent use; Decide is the only entry point the run loop calls.
type Replanner struct {
	mu     sync.Mutex
	cfg    Config
	mon    *runmon.Monitor
	specs  []core.AnalysisSpec  // current cost beliefs (rescaled on adoption)
	res    core.Resources       // full-run envelope the initial plan was solved against
	rec    *core.Recommendation // incumbent, in full-run step coordinates
	simSec float64              // current belief of seconds per simulation step

	seenAlerts int
	pending    *runmon.Alert
	lastStep   int // step of the last decision (any reason), for cooldown
	adopted    int
	limited    bool // the limit record has been emitted
	records    []runmon.ReplanRecord
	nodes      int // branch-and-bound nodes of every re-solve
}

// New builds a replanner over a monitored run: mon is the monitor observing
// the run, specs/res/rec/simSecPerStep are the inputs and output of the
// up-front solve.
func New(mon *runmon.Monitor, specs []core.AnalysisSpec, res core.Resources, rec *core.Recommendation, simSecPerStep float64, cfg Config) *Replanner {
	return &Replanner{
		cfg:      cfg.withDefaults(),
		mon:      mon,
		specs:    append([]core.AnalysisSpec(nil), specs...),
		res:      res,
		rec:      rec,
		simSec:   simSecPerStep,
		lastStep: -1 << 30,
	}
}

// Incumbent returns the current schedule (the adapted one after adoptions).
func (r *Replanner) Incumbent() *core.Recommendation {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rec
}

// Nodes returns the branch-and-bound nodes the replanner's re-solves have
// explored so far.
func (r *Replanner) Nodes() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nodes
}

// Records returns a copy of every replan decision made so far.
func (r *Replanner) Records() []runmon.ReplanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]runmon.ReplanRecord, len(r.records))
	copy(out, r.records)
	return out
}

// Hook adapts Decide to the coupling.Runner.Replan signature.
func (r *Replanner) Hook() func(step int) *core.Recommendation {
	return r.Decide
}

// Decide is called at the end of every simulation step. It returns a new
// schedule exactly when a pending alert survives the hysteresis gates and
// the remaining-horizon re-solve improves on the incumbent; nil means keep
// running the incumbent. Nil-safe.
func (r *Replanner) Decide(step int) *core.Recommendation {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	// Consume alerts raised since the last decision; the earliest new one
	// becomes (or refreshes) the pending trigger.
	if a, n := r.mon.AlertFrom(r.seenAlerts); n > r.seenAlerts {
		pending := a
		r.pending = &pending
		r.seenAlerts = n
	}
	if r.pending == nil {
		return nil
	}
	if r.adopted >= maxReplans {
		if !r.limited {
			r.limited = true
			r.record(runmon.ReplanRecord{
				Step: step, Trigger: r.pending.Kind, Stream: r.pending.Stream,
				Reason: runmon.ReplanLimit,
			})
		}
		r.pending = nil
		return nil
	}
	// Hysteresis: inside the cooldown the trigger stays pending and is
	// decided at the first step outside it — back-to-back alerts coalesce
	// into one decision instead of a replan storm.
	if step-r.lastStep < r.cfg.Cooldown {
		return nil
	}
	trigger := *r.pending
	r.pending = nil
	r.lastStep = step

	remaining := r.res.Steps - step
	if remaining <= 0 {
		r.record(runmon.ReplanRecord{
			Step: step, Trigger: trigger.Kind, Stream: trigger.Stream,
			Reason: runmon.ReplanHorizon,
		})
		return nil
	}

	snap := r.mon.Snapshot()
	factors := r.factors(snap)
	rescaled := r.rescaleSpecs(factors)
	fsim := factors[runmon.StreamSim]
	if fsim <= 0 {
		fsim = 1
	}

	spent := snap.AnalysisSec
	total := r.effectiveTotal(snap, fsim, remaining)
	budget := total - spent
	base := runmon.ReplanRecord{
		Step: step, Trigger: trigger.Kind, Stream: trigger.Stream,
		BudgetSec: budget, SpentSec: spent,
	}
	incValue, incCost := r.incumbentRemaining(rescaled, step, remaining)
	base.OldValue, base.OldCostSec = incValue, incCost

	if budget <= 0 {
		// The budget is already gone; no remaining-horizon model is
		// feasible. Keep the incumbent and say so rather than panic — the
		// runner keeps executing, and the budget alert already fired.
		base.Reason = runmon.ReplanInfeasible
		r.record(base)
		return nil
	}

	horizon := core.Resources{
		Steps:         remaining,
		TimeThreshold: budget * r.cfg.Headroom,
		MemThreshold:  r.res.MemThreshold,
		Bandwidth:     r.res.Bandwidth,
	}
	sol, err := core.Solve(rescaled, horizon, core.SolveOptions{})
	if sol != nil {
		r.nodes += sol.Stats.Nodes
	}
	if err != nil {
		base.Reason = runmon.ReplanInfeasible
		r.record(base)
		return nil
	}
	base.NewValue, base.NewCostSec = sol.Objective, sol.TotalTime

	// Minimum-improvement gate: a still-feasible incumbent survives unless
	// the re-solve clearly beats it. An incumbent that no longer fits the
	// remaining budget is replaced regardless — staying on it would blow
	// the threshold.
	incumbentFits := incCost <= budget*r.cfg.Headroom
	if incumbentFits && sol.Objective < incValue*(1+r.cfg.MinImprove) {
		base.Reason = runmon.ReplanNoImprovement
		r.record(base)
		return nil
	}

	adopted := shiftRecommendation(sol, step)
	r.rec = adopted
	r.specs = rescaled
	r.simSec *= fsim
	r.adopted++
	base.Reason = runmon.ReplanAdopted
	base.Adopted = true
	r.record(base)

	// Re-emitting plan events rebaselines the monitor's detectors on the
	// adapted cost model, so post-replan drift is measured against the new
	// predictions — and a replayed ledger reconstructs the same state.
	profile := runmon.FromPlan(rescaled, sol, core.Resources{
		Steps:         r.res.Steps,
		TimeThreshold: total,
		MemThreshold:  r.res.MemThreshold,
		Bandwidth:     r.res.Bandwidth,
	}, r.simSec)
	profile.App = snap.App
	profile.PlannedSec = spent + sol.TotalTime
	// FromPlan only covers enabled analyses, but the monitor baselines must
	// track the full belief set: a stream left on a stale baseline would
	// report a residual that is already priced into the rescaled spec, and
	// the next replan would compound the two into a double rescale.
	for _, s := range rescaled {
		if s.CT > 0 {
			profile.Streams[runmon.AnalyzeStream(s.Name)] = s.CT
		}
		if s.OT > 0 { // materialized by rescaleSpecs
			profile.Streams[runmon.OutputStream(s.Name)] = s.OT
		}
	}
	for _, e := range profile.PlanEvents() {
		e.Step = step
		r.emit(e)
		r.mon.Observe(e)
	}
	return adopted
}

// record stores a decision and publishes it as a replan event to the ledger,
// the Emit hook, the metrics registry, and the monitor's replan timeline.
// Callers hold r.mu.
func (r *Replanner) record(rec runmon.ReplanRecord) {
	r.records = append(r.records, rec)
	r.cfg.Metrics.Counter("replan_total", obs.Labels{"reason": rec.Reason}).Inc()
	e := rec.Event()
	r.emit(e)
	r.mon.Observe(e)
}

func (r *Replanner) emit(e obs.LedgerEvent) {
	r.cfg.Ledger.Append(e)
	if r.cfg.Emit != nil {
		r.cfg.Emit(e)
	}
}

// factors maps each residual stream to its observed inflation, clamped to
// [minFactor, maxFactor]. The estimate is max(1+EWMA, last/predicted): the
// EWMA lags a step change badly right at detection (alpha 0.3 sees only
// ~50% of a shift after two observations, so a 3x bandwidth collapse would
// be priced at ~2x and the adopted plan would immediately overrun the
// budget), while the latest observation tracks the new level within noise.
// Taking the max biases the cost model toward over-pricing, which is the
// safe direction — an over-priced re-solve schedules conservatively, an
// under-priced one blows the threshold. Streams still calibrating (no
// prediction) rescale by 1.
func (r *Replanner) factors(snap runmon.Snapshot) map[string]float64 {
	f := map[string]float64{}
	for _, st := range snap.Streams {
		if st.PredictedSec <= 0 {
			continue
		}
		v := 1 + st.EWMARelErr
		if st.LastSec > 0 {
			if last := st.LastSec / st.PredictedSec; last > v {
				v = last
			}
		}
		v = min(max(v, minFactor), maxFactor)
		f[st.Stream] = v
	}
	return f
}

// rescaleSpecs applies the per-stream inflation factors to the cost model:
// compute time scales by the analyze stream's factor, output time (derived
// from om/bandwidth when unset, then materialized) by the output stream's,
// and setup time is zeroed for analyses the incumbent already runs — their
// setup is paid.
func (r *Replanner) rescaleSpecs(factors map[string]float64) []core.AnalysisSpec {
	out := make([]core.AnalysisSpec, len(r.specs))
	for i, s := range r.specs {
		if f, ok := factors[runmon.AnalyzeStream(s.Name)]; ok {
			s.CT *= f
		}
		ot := s.OT
		if ot == 0 && s.OM > 0 && r.res.Bandwidth > 0 {
			ot = float64(s.OM) / r.res.Bandwidth
		}
		if f, ok := factors[runmon.OutputStream(s.Name)]; ok && ot > 0 {
			ot *= f
		}
		s.OT = ot
		if sched := r.rec.Schedule(s.Name); sched != nil && sched.Enabled {
			s.FT = 0
		}
		out[i] = s
	}
	return out
}

// effectiveTotal resolves the run's total analysis budget at decision time.
// In percent mode it is BudgetPercent% of the realized-plus-projected
// simulation time — observed sim seconds so far plus the drift-corrected
// projection of the remaining steps — so a slowed simulation grants more
// analysis time, exactly as the §5.3.2 threshold definition implies.
func (r *Replanner) effectiveTotal(snap runmon.Snapshot, fsim float64, remaining int) float64 {
	if r.cfg.BudgetPercent <= 0 {
		return r.res.TimeThreshold
	}
	var simObs float64
	for _, st := range snap.Streams {
		if st.Stream == runmon.StreamSim {
			simObs = st.MeanSec * float64(st.Count)
		}
	}
	projected := simObs + r.simSec*fsim*float64(remaining)
	return projected * r.cfg.BudgetPercent / 100
}

// incumbentRemaining prices the incumbent schedule over the remaining
// horizon under the rescaled cost model: the objective its outstanding
// analysis steps would still earn, and the seconds they would still cost.
func (r *Replanner) incumbentRemaining(rescaled []core.AnalysisSpec, step, remaining int) (value, cost float64) {
	bySpec := map[string]core.AnalysisSpec{}
	for _, s := range rescaled {
		bySpec[s.Name] = s
	}
	for _, sched := range r.rec.Schedules {
		if !sched.Enabled {
			continue
		}
		spec, ok := bySpec[sched.Name]
		if !ok {
			continue
		}
		remA := countAfter(sched.AnalysisSteps, step)
		remO := countAfter(sched.OutputSteps, step)
		if remA == 0 {
			continue
		}
		w := spec.Weight
		if w == 0 {
			w = 1
		}
		value += 1 + w*float64(remA)
		cost += spec.IT*float64(remaining) + spec.CT*float64(remA) + spec.OT*float64(remO)
	}
	return value, cost
}

func countAfter(steps []int, after int) int {
	n := 0
	for _, s := range steps {
		if s > after {
			n++
		}
	}
	return n
}

// shiftRecommendation translates a remaining-horizon solution (steps
// 1..remaining) back into full-run coordinates by offsetting every scheduled
// step by the decision step.
func shiftRecommendation(sol *core.Recommendation, offset int) *core.Recommendation {
	out := *sol
	out.Schedules = make([]core.AnalysisSchedule, len(sol.Schedules))
	for i, s := range sol.Schedules {
		c := s
		c.AnalysisSteps = shiftSteps(s.AnalysisSteps, offset)
		c.OutputSteps = shiftSteps(s.OutputSteps, offset)
		out.Schedules[i] = c
	}
	return &out
}

func shiftSteps(steps []int, offset int) []int {
	if len(steps) == 0 {
		return nil
	}
	out := make([]int, len(steps))
	for i, s := range steps {
		out[i] = s + offset
	}
	return out
}

// String summarizes the replanner state for logs.
func (r *Replanner) String() string {
	if r == nil {
		return "replan: disabled"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprintf("replan: %d decision(s), %d adopted", len(r.records), r.adopted)
}
