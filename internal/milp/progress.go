package milp

import (
	"math"

	"insitu/internal/obs"
)

// workersWidth normalizes Options.Workers the way Stats.Workers reports it.
func (o Options) workersWidth() int {
	if o.Workers >= 2 {
		return o.Workers
	}
	return 1
}

// counters snapshots the cumulative search counters: the statistics so far
// with the width, the explored-node count and the lp-level totals of the
// search's solver contexts folded in (sums, and the max for the eta-file
// peak). The heuristic solver, where the model needs one, is registered too —
// it is always cold, so it never contributes warm fallbacks or dual pivots,
// but its primal pivots and refactorizations are real work that Stats.Pivots
// already charges. finish stamps the snapshot onto the Solution and every
// flight record carries one, so the end record and Stats agree by
// construction. It must only run on the sequential consume path (workers
// idle), where the solver contexts are quiescent.
func (s *search) counters() Stats {
	st := s.stats
	st.Workers = s.opts.workersWidth()
	st.Nodes = s.nodes
	for _, sv := range s.solvers {
		t := &sv.Stats
		st.FallbackColds += t.FallbackCold
		st.WarmInfeasibles += t.WarmInfeasible
		st.PrimalPivots += t.PrimalPivots
		st.DualPivots += t.DualPivots
		st.Refactorizations += t.Refactorizations
		st.PricedColumns += t.PricedColumns
		st.FullPricingPasses += t.FullPricingPasses
		st.EtaPeak = max(st.EtaPeak, t.EtaPeak)
	}
	return st
}

// emit stamps the stream position, bound and counters st onto p and hands it
// to Options.Progress. The incumbent is kept only when p.HasInc is set, and a
// bound of ±Inf or NaN, which JSON cannot carry, is recorded as absent.
func (s *search) emit(p obs.SolveProgress, bound float64, st Stats) {
	p.Seq = s.progSeq
	s.progSeq++
	p.TUS = float64(s.opts.Now().Sub(s.started).Nanoseconds()) / 1e3
	p.Open = s.queue.Len()
	if !p.HasInc {
		p.Incumbent = 0
	}
	if !math.IsInf(bound, 0) && !math.IsNaN(bound) {
		p.HasBound, p.Bound = true, bound
	}
	p.Workers = st.Workers
	p.Nodes = st.Nodes
	p.Pivots = st.Pivots
	p.Relaxations = st.Relaxations
	p.WarmSolves = st.WarmSolves
	p.ColdSolves = st.ColdSolves
	p.FallbackColds = st.FallbackColds
	p.WarmInfeasibles = st.WarmInfeasibles
	p.PrimalPivots = st.PrimalPivots
	p.DualPivots = st.DualPivots
	p.Refactorizations = st.Refactorizations
	p.EtaPeak = st.EtaPeak
	p.ReducedCostFixed = st.ReducedCostFixed
	p.PrunedBound = st.PrunedBound
	p.PrunedInfeasible = st.PrunedInfeasible
	p.IntegralNodes = st.IntegralNodes
	p.BranchedNodes = st.BranchedNodes
	p.QueuePruned = st.QueuePruned
	s.opts.Progress(p)
}

// emitStart announces the problem shape before the root relaxation solves.
func (s *search) emitStart() {
	if s.opts.Progress == nil {
		return
	}
	p := obs.SolveProgress{Kind: obs.SolveProgStart, Vars: s.p.LP.NumVars(), Constraints: len(s.p.LP.Constraints)}
	for _, isInt := range s.p.Integer {
		if isInt {
			p.IntVars++
		}
	}
	s.emit(p, math.Inf(1), s.counters())
}

// emitNode reports the explored node nd once its outcome is settled — a
// branched node's children queued — so the record's Open counts them.
// nodeBound is the node's own LP bound; the record's Bound is the global
// bound, with extra the best bound among the wave's popped but unconsumed
// nodes (see globalBound).
func (s *search) emitNode(nd *node, nodeBound float64, action string, extra float64) {
	if s.opts.Progress == nil {
		return
	}
	p := obs.SolveProgress{
		Kind:        obs.SolveProgNode,
		HasInc:      s.best.HasX,
		Incumbent:   s.best.Objective,
		Depth:       nd.depth,
		NodeBound:   nodeBound,
		Action:      action,
		BranchVar:   nd.branchVar,
		BranchBound: nd.branchBound,
	}
	if nd.parent != nil {
		p.Parent = nd.parent.id
		p.BranchDir = "down"
		if nd.up {
			p.BranchDir = "up"
		}
	}
	s.emit(p, s.globalBound(extra), s.counters())
}

// emitIncumbent reports an incumbent improvement; bound is the global bound
// at that moment.
func (s *search) emitIncumbent(obj, bound float64) {
	if s.opts.Progress == nil {
		return
	}
	s.emit(obs.SolveProgress{Kind: obs.SolveProgIncumbent, HasInc: true, Incumbent: obj}, bound, s.counters())
}
