// Package core implements the paper's contribution: optimal scheduling of
// in-situ analyses as a mixed-integer linear program (§3.2). Given the time
// and memory requirements of each analysis (Table 1) and the resource
// envelope (time threshold, memory ceiling, storage bandwidth), the solver
// recommends which analyses to run in-situ, how often to run each, and how
// often each should write its output, maximizing
//
//	|A| + Σ_i w_i · |C_i|
//
// subject to the time constraint (equations 2–4), the memory constraints
// with output-step resets (equations 5–8), and the minimum-interval
// constraint (equation 9).
//
// Two exact formulations are provided:
//
//   - Solve builds a compact mode-based MILP: each analysis selects one
//     (count, output-stride) mode whose exact time cost and peak memory are
//     precomputed from the evenly spread schedule the mode induces. This is
//     the production path; it solves 1000-step instances in well under the
//     0.17–1.36 s the paper reports for CPLEX.
//   - SolveFull builds the paper's time-indexed formulation verbatim, with
//     one analysis/output binary per analysis per step and big-M linearized
//     memory resets. It is exponential in principle and is used at small
//     step counts to validate the compact model.
//
// All solutions expand to concrete schedules (which simulation steps analyze
// and which output, Figure 1) and re-validate against the raw constraint
// recurrences before being returned.
package core

import (
	"fmt"
	"time"

	"insitu/internal/milp"
	"insitu/internal/obs"
)

// AnalysisSpec carries the Table-1 input parameters for one analysis.
// Times are in seconds, memory in bytes.
type AnalysisSpec struct {
	Name string

	FT float64 // fixed setup time (once, step 0)
	IT float64 // per-simulation-step facilitation time
	CT float64 // compute time per analysis step
	OT float64 // output time per output step; if 0 it is derived as OM/bw

	FM int64 // fixed memory
	IM int64 // memory allocated per simulation step (reset at output steps)
	CM int64 // memory allocated per analysis step
	OM int64 // memory allocated per output step

	Weight      float64 // importance w_i (default 1)
	MinInterval int     // itv_i, minimum steps between analysis steps (default 1)

	// OutputOptional permits schedules in which the analysis never writes
	// its results (keeping them in memory or discarding them). The paper's
	// objective does not reward output steps, so a literal reading of the
	// model would never schedule any; in its experiments every enabled
	// analysis does output, which the default (false: at least one output
	// step whenever the analysis is enabled) reproduces.
	OutputOptional bool
}

func (a AnalysisSpec) withDefaults() AnalysisSpec {
	if a.Weight == 0 {
		a.Weight = 1
	}
	if a.MinInterval <= 0 {
		a.MinInterval = 1
	}
	return a
}

// Validate rejects structurally invalid specs.
func (a AnalysisSpec) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("core: analysis with empty name")
	}
	if a.FT < 0 || a.IT < 0 || a.CT < 0 || a.OT < 0 {
		return fmt.Errorf("core: analysis %q has negative time parameter", a.Name)
	}
	if a.FM < 0 || a.IM < 0 || a.CM < 0 || a.OM < 0 {
		return fmt.Errorf("core: analysis %q has negative memory parameter", a.Name)
	}
	if a.Weight < 0 {
		return fmt.Errorf("core: analysis %q has negative weight", a.Name)
	}
	return nil
}

// ValidateSpecs validates every spec of an analysis list and rejects two
// analyses with one name: a schedule names its analysis, so the validation of
// an answer could not tell the two apart.
func ValidateSpecs(specs []AnalysisSpec) error {
	seen := make(map[string]struct{}, len(specs))
	for _, a := range specs {
		if err := a.Validate(); err != nil {
			return err
		}
		if _, dup := seen[a.Name]; dup {
			return fmt.Errorf("core: two analyses named %q", a.Name)
		}
		seen[a.Name] = struct{}{}
	}
	return nil
}

// outputTime returns ot, deriving it from om and the storage bandwidth when
// unset (the ot = om/bw substitution of §3.2).
func (a AnalysisSpec) outputTime(bandwidth float64) float64 {
	if a.OT > 0 {
		return a.OT
	}
	if a.OM > 0 && bandwidth > 0 {
		return float64(a.OM) / bandwidth
	}
	return 0
}

// Resources is the resource envelope of a run.
type Resources struct {
	// Steps is the number of simulation time steps.
	Steps int
	// TimeThreshold is the total time budget for all in-situ analyses over
	// the whole run, i.e. cth × Steps in the paper's notation. Use
	// PercentThreshold to derive it from a simulation-time percentage
	// (§5.3.2) or set it directly as a total (§5.3.4).
	TimeThreshold float64
	// MemThreshold is mth: the memory available for analyses at any step.
	// Zero means unconstrained.
	MemThreshold int64
	// Bandwidth is the average I/O bandwidth (bytes/s) from the simulation
	// site to storage, used to derive ot for analyses that only specify om.
	Bandwidth float64
}

// Validate rejects invalid resource envelopes.
func (r Resources) Validate() error {
	if r.Steps <= 0 {
		return fmt.Errorf("core: resources need Steps > 0, got %d", r.Steps)
	}
	if r.TimeThreshold < 0 {
		return fmt.Errorf("core: negative time threshold %g", r.TimeThreshold)
	}
	if r.MemThreshold < 0 {
		return fmt.Errorf("core: negative memory threshold %d", r.MemThreshold)
	}
	if r.Bandwidth < 0 {
		return fmt.Errorf("core: negative bandwidth %g", r.Bandwidth)
	}
	return nil
}

// PercentThreshold returns the total analysis time budget corresponding to a
// threshold expressed as a percentage of the simulation time (the §5.3.2
// use case): percent% of (simTimePerStep × steps).
func PercentThreshold(simTimePerStep float64, steps int, percent float64) float64 {
	return simTimePerStep * float64(steps) * percent / 100
}

// AnalysisSchedule is the recommendation for one analysis.
type AnalysisSchedule struct {
	Name    string
	Enabled bool
	// Count is |C_i|: how many analysis steps are scheduled.
	Count int
	// OutputEvery is the output stride in analysis steps (output after every
	// k-th analysis); 0 when disabled.
	OutputEvery int
	// Outputs is |O_i|.
	Outputs int
	// AnalysisSteps and OutputSteps are the concrete simulation steps
	// (1-based) at which the analysis runs and outputs, in ascending order.
	AnalysisSteps []int
	OutputSteps   []int
	// PredictedTime is the analysis' total contribution to the time budget.
	PredictedTime float64
	// PeakMemory is the maximum mStart this analysis reaches at any step.
	PeakMemory int64
}

// Recommendation is the solver output for a full analysis set.
type Recommendation struct {
	Schedules []AnalysisSchedule
	// Objective is |A| + Σ w_i |C_i| at the optimum.
	Objective float64
	// TotalTime is the predicted total in-situ analysis time (must be within
	// the threshold).
	TotalTime float64
	// PeakMemory is the maximum over steps of the summed mStart of all
	// analyses.
	PeakMemory int64
	// SolveTime is the wall-clock time the MILP solver took.
	SolveTime time.Duration
	// Stats instruments the branch-and-bound search that produced this
	// recommendation (nodes, relaxations, simplex pivots, terminal bound).
	Stats milp.Stats
}

// Schedule returns the schedule for the named analysis, or nil.
func (r *Recommendation) Schedule(name string) *AnalysisSchedule {
	for i := range r.Schedules {
		if r.Schedules[i].Name == name {
			return &r.Schedules[i]
		}
	}
	return nil
}

// SolveEvent is the ledger's solve event for this recommendation under name:
// its search's nodes and pivots, its objective, and the time threshold it
// was solved for, timed by SolveTime.
func (r *Recommendation) SolveEvent(name string, threshold float64) obs.LedgerEvent {
	return obs.LedgerEvent{
		Type: obs.LedgerSolve, Name: name,
		Dur: float64(r.SolveTime.Nanoseconds()) / 1e3,
		Args: map[string]float64{
			"nodes":     float64(r.Stats.Nodes),
			"pivots":    float64(r.Stats.Pivots),
			"objective": r.Objective,
			"threshold": threshold,
		},
	}
}

// EnabledCount returns |A|, the number of enabled analyses.
func (r *Recommendation) EnabledCount() int {
	n := 0
	for _, s := range r.Schedules {
		if s.Enabled {
			n++
		}
	}
	return n
}

// TotalAnalyses returns Σ |C_i| over all analyses.
func (r *Recommendation) TotalAnalyses() int {
	n := 0
	for _, s := range r.Schedules {
		n += s.Count
	}
	return n
}

// Utilization returns TotalTime as a fraction of the threshold (the
// "% within threshold" column of Tables 5 and 6), or 0 when the threshold is
// zero.
func (r *Recommendation) Utilization(res Resources) float64 {
	if res.TimeThreshold <= 0 {
		return 0
	}
	return r.TotalTime / res.TimeThreshold
}

// String renders a compact multi-line summary.
func (r *Recommendation) String() string {
	out := fmt.Sprintf("objective=%.3f total_time=%.3fs peak_mem=%d solve=%v\n",
		r.Objective, r.TotalTime, r.PeakMemory, r.SolveTime)
	for _, s := range r.Schedules {
		if !s.Enabled {
			out += fmt.Sprintf("  %-24s disabled\n", s.Name)
			continue
		}
		out += fmt.Sprintf("  %-24s count=%-4d outputs=%-4d time=%.3fs peak_mem=%d\n",
			s.Name, s.Count, s.Outputs, s.PredictedTime, s.PeakMemory)
	}
	return out
}
