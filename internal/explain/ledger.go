package explain

import (
	"sort"

	"insitu/internal/obs"
	"insitu/internal/runmon"
)

// KernelAlignment compares one analysis' plan to its ledger record.
type KernelAlignment struct {
	Name          string
	PlannedCount  int     // analysis steps the schedule grants
	ExecutedCount int     // analysis events in the ledger for this kernel (one per step it ran)
	PlannedSec    float64 // predicted total analysis time (the model's cost)
	ExecutedSec   float64 // summed analysis+output durations from the ledger
}

// Alignment is the planned-vs-executed comparison AlignLedger attaches.
type Alignment struct {
	App     string // application named by the ledger's run_start, if any
	Steps   int    // distinct simulation steps the ledger covers
	Kernels []KernelAlignment
	// Replans is the run's rolling-horizon reschedule timeline, decoded from
	// the ledger's replan events (empty for runs that never replanned). A
	// non-empty timeline explains planned-vs-executed drift that is not a
	// failure: the run deliberately left the up-front plan.
	Replans []runmon.ReplanRecord
	// Flights holds the run's solver flight streams (solveprog events),
	// grouped per solve; empty for ledgers recorded without a flight
	// recorder, so old ledgers render unchanged.
	Flights []obs.SolveProgRun
}

// AlignLedger tallies the ledger's per-kernel work in one pass and aligns it
// with the planned schedule: one row per planned analysis (in schedule order),
// plus one for any kernel the ledger saw that the plan never mentioned.
func (r *Report) AlignLedger(events []obs.LedgerEvent) {
	a := &Alignment{
		Replans: runmon.ReplansFromEvents(events),
		Flights: obs.GroupSolveProgEvents(events),
	}

	steps := map[int]bool{}
	counts := map[string]int{}
	seconds := map[string]float64{}
	for _, e := range events {
		switch e.Type {
		case obs.LedgerRunStart:
			if a.App == "" {
				a.App = e.Name
			}
		case obs.LedgerStep:
			steps[e.Step] = true
		case obs.LedgerAnalysis:
			steps[e.Step] = true
			counts[e.Name]++
			seconds[e.Name] += e.Dur / 1e6
		case obs.LedgerOutput:
			steps[e.Step] = true
			seconds[e.Name] += e.Dur / 1e6
		}
	}
	a.Steps = len(steps)

	known := map[string]bool{}
	for _, s := range r.Ex.Rec.Schedules {
		known[s.Name] = true
		a.Kernels = append(a.Kernels, KernelAlignment{
			Name:          s.Name,
			PlannedCount:  s.Count,
			ExecutedCount: counts[s.Name],
			PlannedSec:    s.PredictedTime,
			ExecutedSec:   seconds[s.Name],
		})
	}
	// Ledger-only kernels: executed but never planned — worth surfacing, the
	// run did work the schedule does not account for.
	extra := make([]string, 0, len(counts))
	for name := range counts {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		a.Kernels = append(a.Kernels, KernelAlignment{
			Name:          name,
			ExecutedCount: counts[name],
			ExecutedSec:   seconds[name],
		})
	}
	r.Ledger = a
}
