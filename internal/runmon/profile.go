// Package runmon watches a scheduled in-situ run while it happens. The paper
// schedules once up front from profiled ct/at/ot costs (§4), but those
// profiles drift mid-run — simulations refine grids, outputs hit contended
// storage — so runmon maintains streaming residuals between the perfmodel
// predictions a schedule was solved against and the durations the run ledger
// actually records, runs online drift statistics over them (an EWMA of
// relative error plus a CUSUM change detector), projects whether the
// remaining schedule will blow the time budget, and emits schema-versioned
// alerts back into the ledger and the metrics registry. The emitted drift
// signal is the input a future drift-adaptive replanner consumes.
//
// The package has three consumption paths:
//
//   - live, in-process: hand Monitor.Observe to coupling.Runner.Observe (or
//     set campaign.Config.Monitor) and every ledger-style event is scored as
//     the run produces it;
//   - live, out-of-process: Follow tails a growing JSONL ledger file and
//     replays appended events into a Monitor (cmd/runmon tail and serve);
//   - post-hoc: Analyze replays a complete ledger and returns the final
//     Snapshot (cmd/runmon report, insitu-sched -monitor).
package runmon

import (
	"fmt"
	"math"
	"sort"

	"insitu/internal/core"
	"insitu/internal/obs"
)

// StreamSim is the residual stream tracking simulation step time.
const StreamSim = "sim"

// AnalyzeStream names the residual stream for one kernel's analysis steps.
func AnalyzeStream(kernel string) string { return kernel + "/analyze" }

// OutputStream names the residual stream for one kernel's output steps.
func OutputStream(kernel string) string { return kernel + "/output" }

// Profile is the predicted side of the residual computation: the expected
// duration of one event on each stream, plus the budget the schedule was
// solved against. Streams absent from the map self-calibrate inside the
// monitor from their first observations.
type Profile struct {
	// App names the application the profile was built for (informational).
	App string
	// Steps is the planned run length in simulation steps.
	Steps int
	// SimSec is the predicted simulation time per step (0 = self-calibrate).
	SimSec float64
	// ThresholdSec is the total analysis-time budget of the schedule
	// (core.Resources.TimeThreshold); 0 disables budget projection.
	ThresholdSec float64
	// PlannedSec is the schedule's predicted total analysis time over the
	// whole run (core.Recommendation.TotalTime).
	PlannedSec float64
	// Streams maps stream name to the predicted seconds per event.
	Streams map[string]float64
}

// FromPlan builds the profile a solved schedule implies: per-invocation
// analysis cost ct and output cost ot (derived from om/bw when ot is unset,
// the §3.2 substitution) for every enabled analysis, plus the probed
// simulation rate and the solve's budget.
func FromPlan(specs []core.AnalysisSpec, rec *core.Recommendation, res core.Resources, simSecPerStep float64) *Profile {
	p := &Profile{
		Steps:        res.Steps,
		SimSec:       simSecPerStep,
		ThresholdSec: res.TimeThreshold,
		Streams:      map[string]float64{},
	}
	if rec != nil {
		p.PlannedSec = rec.TotalTime
	}
	if simSecPerStep > 0 {
		p.Streams[StreamSim] = simSecPerStep
	}
	bySpec := map[string]core.AnalysisSpec{}
	for _, s := range specs {
		bySpec[s.Name] = s
	}
	if rec == nil {
		return p
	}
	for _, s := range rec.Schedules {
		if !s.Enabled {
			continue
		}
		spec, ok := bySpec[s.Name]
		if !ok {
			continue
		}
		if spec.CT > 0 {
			p.Streams[AnalyzeStream(s.Name)] = spec.CT
		}
		ot := spec.OT
		if ot == 0 && spec.OM > 0 && res.Bandwidth > 0 {
			ot = float64(spec.OM) / res.Bandwidth
		}
		if ot > 0 {
			p.Streams[OutputStream(s.Name)] = ot
		}
	}
	return p
}

// planRow is the ledger record (obs.RecordEvent) of one "plan" event: a
// stream's predicted seconds per event and, on the sim row, the run's length,
// budget and planned analysis total.
type planRow struct {
	Stream       string  `json:"stream" ledger:"name"`
	SecPerEvent  float64 `json:"sec_per_event"`
	Steps        int     `json:"steps,omitempty"`
	ThresholdSec float64 `json:"threshold_sec,omitempty"`
	PlannedSec   float64 `json:"planned_sec,omitempty"`
}

// PlanEvents serializes the profile as ledger "plan" events, one per stream
// plus one run-level event carrying the budget, so a ledger written by a
// monitored run is self-describing: runmon tail/report/serve rebuild the
// profile from the file alone via FromEvents.
func (p *Profile) PlanEvents() []obs.LedgerEvent {
	if p == nil {
		return nil
	}
	events := []obs.LedgerEvent{obs.RecordEvent(obs.LedgerPlan, &planRow{
		Stream: StreamSim, SecPerEvent: p.SimSec,
		Steps: p.Steps, ThresholdSec: p.ThresholdSec, PlannedSec: p.PlannedSec,
	})}
	for _, name := range sortedStreamNames(p.Streams) {
		if name != StreamSim {
			events = append(events, obs.RecordEvent(obs.LedgerPlan, &planRow{Stream: name, SecPerEvent: p.Streams[name]}))
		}
	}
	return events
}

// absorbPlanEvent folds one ledger "plan" event into the profile and returns
// its row; FromEvents and the monitor both use it, so in-ledger plans and
// in-process plans are interchangeable.
func (p *Profile) absorbPlanEvent(e obs.LedgerEvent) planRow {
	var row planRow
	obs.ReadRecord(e, obs.LedgerPlan, &row)
	if p.Streams == nil {
		p.Streams = map[string]float64{}
	}
	if row.Stream == StreamSim {
		p.SimSec = row.SecPerEvent
		if row.Steps > 0 {
			p.Steps = row.Steps
		}
		if row.ThresholdSec > 0 {
			p.ThresholdSec = row.ThresholdSec
		}
		if row.PlannedSec > 0 {
			p.PlannedSec = row.PlannedSec
		}
	}
	if sec := row.SecPerEvent; sec > 0 && !math.IsNaN(sec) && !math.IsInf(sec, 0) {
		p.Streams[row.Stream] = sec
	}
	return row
}

// FromEvents reconstructs a profile from a ledger's plan events. It returns
// nil when the ledger carries none, in which case a monitor self-calibrates
// every stream.
func FromEvents(events []obs.LedgerEvent) *Profile {
	var p *Profile
	for _, e := range events {
		if e.Type != obs.LedgerPlan {
			continue
		}
		if p == nil {
			p = &Profile{Streams: map[string]float64{}}
		}
		p.absorbPlanEvent(e)
	}
	return p
}

func sortedStreamNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// String summarizes the profile for logs.
func (p *Profile) String() string {
	if p == nil {
		return "runmon: no profile (self-calibrating)"
	}
	return fmt.Sprintf("runmon: profile with %d stream(s), steps=%d threshold=%.3fs planned=%.3fs",
		len(p.Streams), p.Steps, p.ThresholdSec, p.PlannedSec)
}
