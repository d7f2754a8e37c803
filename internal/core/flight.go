package core

import (
	"math"

	"insitu/internal/milp"
	"insitu/internal/obs"
)

// flightRecord converts one solver progress event into the obs-side record,
// normalizing the non-finite bounds JSON cannot carry into HasBound=false.
func flightRecord(ev milp.ProgressEvent) obs.SolveProgress {
	p := obs.SolveProgress{
		Seq:              ev.Seq,
		Kind:             ev.Kind,
		TUS:              float64(ev.T.Nanoseconds()) / 1e3,
		Wave:             ev.Wave,
		WaveSize:         ev.WaveSize,
		Workers:          ev.Workers,
		Nodes:            ev.Nodes,
		Open:             ev.Open,
		Pivots:           ev.Pivots,
		Relaxations:      ev.Relaxations,
		WarmSolves:       ev.WarmSolves,
		ColdSolves:       ev.ColdSolves,
		FallbackColds:    ev.FallbackColds,
		WarmInfeasibles:  ev.WarmInfeasibles,
		PrimalPivots:     ev.PrimalPivots,
		DualPivots:       ev.DualPivots,
		Refactorizations: ev.Refactorizations,
		EtaPeak:          ev.EtaPeak,
		ReducedCostFixed: ev.ReducedCostFixed,
		PrunedBound:      ev.PrunedBound,
		PrunedInfeasible: ev.PrunedInfeasible,
		IntegralNodes:    ev.IntegralNodes,
		BranchedNodes:    ev.BranchedNodes,
		QueuePruned:      ev.QueuePruned,
		Vars:             ev.Vars,
		IntVars:          ev.IntVars,
		Constraints:      ev.Constraints,
	}
	if ev.HasInc {
		p.HasInc, p.Incumbent = true, ev.Incumbent
	}
	if !math.IsInf(ev.Bound, 0) && !math.IsNaN(ev.Bound) {
		p.HasBound, p.Bound = true, ev.Bound
	}
	if ev.Kind == milp.ProgressEnd {
		p.Status = ev.Status.String()
	}
	return p
}

// progressFunc builds the milp progress callback for these options: a
// recorder feed when Flight is attached, otherwise nil (zero solver overhead).
func (o SolveOptions) progressFunc() func(milp.ProgressEvent) {
	if o.Flight == nil {
		return nil
	}
	fr := o.Flight
	return func(ev milp.ProgressEvent) { fr.Record(flightRecord(ev)) }
}
