package replan

import (
	"fmt"
	"math/rand"
	"sort"

	"insitu/internal/core"
	"insitu/internal/obs"
	"insitu/internal/runmon"
)

// Perturbation kinds, aliased from runmon so scenario authors need only one
// import.
const (
	PerturbNone       = runmon.PerturbNone
	PerturbSimTime    = runmon.PerturbSimTime
	PerturbOutputBW   = runmon.PerturbOutputBW
	PerturbAnalysisCT = runmon.PerturbAnalysisCT
)

// Scenario is one closed-loop run of the replan simulator: a schedulable
// analysis set, a budget, and a mid-run perturbation of the true costs. The
// perturbation kinds are runmon's (PerturbNone/PerturbSimTime/
// PerturbOutputBW/PerturbAnalysisCT).
type Scenario struct {
	Name  string
	Specs []core.AnalysisSpec
	Steps int
	// SimSec is the profiled (believed) simulation seconds per step.
	SimSec float64
	// BudgetPercent > 0 puts the run in percent-threshold mode: the
	// analysis budget is this percentage of realized simulation time.
	// Otherwise ThresholdSec is the absolute budget.
	BudgetPercent float64
	ThresholdSec  float64
	MemThreshold  int64
	Bandwidth     float64
	// Perturb/ChangeStep/Factor define the truth the profiles miss: from
	// ChangeStep on, the perturbed stream class costs Factor times its
	// profile. NoiseFrac adds multiplicative observation noise throughout.
	Perturb    string
	ChangeStep int
	Factor     float64
	NoiseFrac  float64
	Seed       int64
	// Replanner hysteresis overrides (zero = replan.Config defaults).
	Cooldown   int
	MinImprove float64
	Headroom   float64
}

// Resources materializes the scenario's believed solver input: the percent
// budget is converted against the profiled (not realized) simulation time,
// exactly as the up-front planner sees it.
func (sc Scenario) Resources() core.Resources {
	th := sc.ThresholdSec
	if sc.BudgetPercent > 0 {
		th = core.PercentThreshold(sc.SimSec, sc.Steps, sc.BudgetPercent)
	}
	return core.Resources{
		Steps:         sc.Steps,
		TimeThreshold: th,
		MemThreshold:  sc.MemThreshold,
		Bandwidth:     sc.Bandwidth,
	}
}

// SimResult is the outcome of one simulated run, static or adaptive.
type SimResult struct {
	Name     string `json:"name"`
	Adaptive bool   `json:"adaptive"`
	// Value is the realized objective: |A| + Σ w_i·|C_i| counting only
	// analyses executed within the (realized) budget.
	Value float64 `json:"value"`
	// Analyses counts executed analysis steps per kernel (within budget).
	Analyses map[string]int `json:"analyses"`
	// AnalysisSec is the realized total analysis+output time.
	AnalysisSec float64 `json:"analysis_sec"`
	// SimSecTotal is the realized total simulation time.
	SimSecTotal float64 `json:"sim_sec_total"`
	// BudgetSec is the effective budget the run was held to: the percent
	// threshold of realized simulation time, or the absolute threshold.
	BudgetSec float64 `json:"budget_sec"`
	// Exceeded reports whether realized analysis time overran the budget.
	Exceeded bool `json:"exceeded"`
	// Replans counts adopted replans; Records carries every decision.
	Replans int                   `json:"replans"`
	Records []runmon.ReplanRecord `json:"records,omitempty"`
	// Events is the full ledger-style event stream of the run, including
	// replan and re-emitted plan events; the determinism tests byte-compare
	// it across solver worker counts. Excluded from JSON snapshots.
	Events []obs.LedgerEvent `json:"-"`
	// Nodes sums the branch-and-bound nodes of every solve of the run: the
	// up-front one and each re-solve. Excluded from JSON snapshots.
	Nodes int `json:"-"`
}

// exec is one executed analysis or output span, in execution order.
type exec struct {
	kernel string
	sec    float64
	isA    bool
}

// Simulate runs a scenario end to end: solve the up-front plan from the
// believed profiles, then execute the run against the perturbed truth,
// feeding every event through a runmon monitor — and, when adaptive, a
// Replanner whose adopted schedules immediately redirect the remaining run.
// Everything is driven by the scenario seed: the same scenario produces a
// byte-identical event stream. Every solve runs at the default search width;
// workers is ignored, and goes once the benchmark harness stops passing it.
func Simulate(sc Scenario, adaptive bool, workers int) (SimResult, error) {
	res := sc.Resources()
	rec, err := core.Solve(sc.Specs, res, core.SolveOptions{})
	if err != nil {
		return SimResult{}, fmt.Errorf("replan: up-front solve for %s: %w", sc.Name, err)
	}

	profile := runmon.FromPlan(sc.Specs, rec, res, sc.SimSec)
	profile.App = "replan-sim/" + sc.Name
	plan := profile.PlanEvents()
	// The up-front plan sizes the event stream and the execution log once:
	// only an adopted replan, which adds events and can move work, grows them.
	planned := 0
	for _, s := range rec.Schedules {
		if s.Enabled {
			planned += len(s.AnalysisSteps) + len(s.OutputSteps)
		}
	}
	result := SimResult{
		Name: sc.Name, Adaptive: adaptive, Analyses: map[string]int{}, Nodes: rec.Stats.Nodes,
		Events: make([]obs.LedgerEvent, 0, 2+len(plan)+sc.Steps+planned), // run start and end, plan, steps, work
	}
	push := func(e obs.LedgerEvent) { result.Events = append(result.Events, e) }
	mon := runmon.NewMonitor(profile, runmon.Config{})
	var rp *Replanner
	if adaptive {
		rp = New(mon, sc.Specs, res, rec, sc.SimSec, Config{
			Cooldown:      sc.Cooldown,
			MinImprove:    sc.MinImprove,
			Headroom:      sc.Headroom,
			BudgetPercent: sc.BudgetPercent,
			Emit:          push,
		})
	}

	start := obs.LedgerEvent{Type: obs.LedgerRunStart, Name: profile.App}
	push(start)
	mon.Observe(start)
	for _, e := range plan {
		push(e)
		mon.Observe(e)
	}

	// The truth the profiles miss: from ChangeStep on, the perturbed stream
	// class costs Factor times its spec.
	inflate := func(kind string, step int) float64 {
		if sc.Perturb == kind && sc.Factor > 0 && step >= sc.ChangeStep {
			return sc.Factor
		}
		return 1
	}
	rng := rand.New(rand.NewSource(sc.Seed))
	noisy := func(sec float64) float64 {
		if sc.NoiseFrac <= 0 {
			return sec
		}
		return sec * (1 + sc.NoiseFrac*(2*rng.Float64()-1))
	}

	bySpec := map[string]core.AnalysisSpec{}
	for _, s := range sc.Specs {
		bySpec[s.Name] = s
	}
	// active mirrors the current schedule as per-kernel step sets, rebuilt
	// whenever a replan is adopted. Kernel order follows rec.Schedules for
	// a deterministic event stream.
	type kernelPlan struct {
		name string
		isA  map[int]bool
		isO  map[int]bool
	}
	buildActive := func(r *core.Recommendation) []kernelPlan {
		var out []kernelPlan
		for _, s := range r.Schedules {
			if !s.Enabled {
				continue
			}
			kp := kernelPlan{name: s.Name, isA: map[int]bool{}, isO: map[int]bool{}}
			for _, j := range s.AnalysisSteps {
				kp.isA[j] = true
			}
			for _, j := range s.OutputSteps {
				kp.isO[j] = true
			}
			out = append(out, kp)
		}
		return out
	}
	active := buildActive(rec)

	execs := make([]exec, 0, planned)
	for j := 1; j <= sc.Steps; j++ {
		simSec := noisy(sc.SimSec * inflate(runmon.PerturbSimTime, j))
		result.SimSecTotal += simSec
		e := obs.LedgerEvent{Type: obs.LedgerStep, Step: j, Dur: simSec * 1e6}
		push(e)
		mon.Observe(e)

		for _, kp := range active {
			if !kp.isA[j] {
				continue
			}
			spec := bySpec[kp.name]
			aSec := noisy(spec.CT * inflate(runmon.PerturbAnalysisCT, j))
			execs = append(execs, exec{kernel: kp.name, sec: aSec, isA: true})
			result.AnalysisSec += aSec
			e := obs.LedgerEvent{Type: obs.LedgerAnalysis, Name: kp.name, Step: j, Dur: aSec * 1e6}
			push(e)
			mon.Observe(e)

			if kp.isO[j] {
				ot := spec.OT
				if ot == 0 && spec.OM > 0 && sc.Bandwidth > 0 {
					ot = float64(spec.OM) / sc.Bandwidth
				}
				oSec := noisy(ot * inflate(runmon.PerturbOutputBW, j))
				execs = append(execs, exec{kernel: kp.name, sec: oSec})
				result.AnalysisSec += oSec
				e := obs.LedgerEvent{Type: obs.LedgerOutput, Name: kp.name, Step: j, Dur: oSec * 1e6, Bytes: spec.OM}
				push(e)
				mon.Observe(e)
			}
		}

		if rp != nil {
			if next := rp.Decide(j); next != nil {
				active = buildActive(next)
			}
		}
	}
	end := obs.LedgerEvent{Type: obs.LedgerRunEnd, Step: sc.Steps}
	push(end)
	mon.Observe(end)

	// Realized budget and value: in percent mode the budget tracks the
	// simulation time that actually elapsed; executed analyses count toward
	// the objective only while cumulative analysis+output time stays within
	// it (work past the threshold is work the run was not allowed).
	result.BudgetSec = sc.ThresholdSec
	if sc.BudgetPercent > 0 {
		result.BudgetSec = result.SimSecTotal * sc.BudgetPercent / 100
	}
	result.Exceeded = result.AnalysisSec > result.BudgetSec
	var cum float64
	counted := map[string]int{}
	for _, x := range execs {
		cum += x.sec
		if cum > result.BudgetSec {
			break
		}
		if x.isA {
			counted[x.kernel]++
		}
	}
	names := make([]string, 0, len(counted))
	for name := range counted {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := counted[name]
		result.Analyses[name] = n
		w := bySpec[name].Weight
		if w == 0 {
			w = 1
		}
		result.Value += 1 + w*float64(n)
	}
	if rp != nil {
		result.Nodes += rp.Nodes()
		result.Records = rp.Records()
		for _, r := range result.Records {
			if r.Adopted {
				result.Replans++
			}
		}
	}
	return result, nil
}
