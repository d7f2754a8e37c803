package milp

import (
	"math"
	"time"

	"insitu/internal/lp"
)

// Progress event kinds, in the order a solve emits them: exactly one
// ProgressStart, zero or more ProgressIncumbent/ProgressWave interleaved,
// exactly one ProgressEnd.
const (
	ProgressStart     = "start"     // problem shape, before the root relaxation
	ProgressWave      = "wave"      // one consumed wave (one node at width 1)
	ProgressIncumbent = "incumbent" // the incumbent improved
	ProgressEnd       = "end"       // terminal status, objective, and bound
)

// ProgressEvent is one sample of the solver flight stream (the solveprog_v=1
// payload once it reaches the obs layer). Events are emitted on the
// sequential in-order consume path, so for a fixed Options.Workers width the
// stream is deterministic run to run — every field except T, which follows
// the Options.Now clock. Across widths the explored tree differs (see
// Solve), so only the start/end projection is width-invariant; package
// obs exposes it as the canonical stream.
//
// All counters are cumulative since the start of the solve, so a consumer
// that only sees a suffix of the stream (a full ring buffer) still reads
// correct totals and can difference adjacent events for per-wave rates.
type ProgressEvent struct {
	Seq  int    // 0-based event index within this solve
	Kind string // one of the Progress* constants
	T    time.Duration

	// Search position. Wave counts consumed waves (the root is wave 1; the
	// width-1 search consumes one node per wave). Open is the number of nodes
	// left in the queue; WaveSize the nodes consumed by this wave, so
	// WaveSize/Workers is the worker occupancy of the wave.
	Wave     int
	WaveSize int
	Workers  int
	Nodes    int
	Open     int

	// Bounds. Incumbent is meaningful only when HasInc; Bound is the best
	// remaining global bound and may be ±Inf (start events and infeasible
	// searches). The absolute gap is Bound-Incumbent when both are finite.
	HasInc    bool
	Incumbent float64
	Bound     float64

	// LP effort, cumulative, heuristic re-solves included (matching Stats).
	Pivots        int
	Relaxations   int
	WarmSolves    int
	ColdSolves    int
	FallbackColds int
	// Revised-simplex internals, cumulative across the solver contexts
	// (matching the Stats fields of the same names): warm re-solves pruned on
	// a dual infeasibility certificate, the primal/dual pivot split, basis
	// refactorizations, and the peak eta-file length.
	WarmInfeasibles  int
	PrimalPivots     int
	DualPivots       int
	Refactorizations int
	EtaPeak          int
	// ReducedCostFixed is the number of integer columns fixed in the root box
	// by reduced cost so far (matching Stats.ReducedCostFixed).
	ReducedCostFixed int

	// Prune-reason taxonomy over explored nodes, cumulative:
	// Nodes == PrunedBound + PrunedInfeasible + IntegralNodes + BranchedNodes.
	// QueuePruned counts nodes discarded at pop time without an LP solve (not
	// explored nodes).
	PrunedBound      int
	PrunedInfeasible int
	IntegralNodes    int
	BranchedNodes    int
	QueuePruned      int

	// Problem shape, set on ProgressStart only.
	Vars        int
	IntVars     int
	Constraints int

	// Status is set on ProgressEnd only.
	Status Status
}

// Gap returns the absolute optimality gap Bound-Incumbent, or +Inf when no
// incumbent exists or the bound is not finite.
func (e ProgressEvent) Gap() float64 {
	if !e.HasInc || math.IsInf(e.Bound, 0) {
		return math.Inf(1)
	}
	return e.Bound - e.Incumbent
}

// workersWidth normalizes Options.Workers the way Stats.Workers reports it.
func (o Options) workersWidth() int {
	if o.Workers >= 2 {
		return o.Workers
	}
	return 1
}

// solverTotals aggregates the lp-level statistics across the search's
// solver contexts: sums for the counters, max for the eta-file peak. The
// heuristic solver, where the model needs one, is registered too — it is
// always cold, so it never contributes warm fallbacks or dual pivots, but
// its primal pivots and refactorizations are real work that Stats.Pivots
// already charges.
func (s *search) solverTotals() (t lp.SolverStats) {
	for _, sv := range s.solvers {
		st := &sv.Stats
		t.FallbackCold += st.FallbackCold
		t.WarmInfeasible += st.WarmInfeasible
		t.PrimalPivots += st.PrimalPivots
		t.DualPivots += st.DualPivots
		t.Refactorizations += st.Refactorizations
		t.PricedColumns += st.PricedColumns
		t.FullPricingPasses += st.FullPricingPasses
		if st.EtaPeak > t.EtaPeak {
			t.EtaPeak = st.EtaPeak
		}
	}
	return t
}

// fill stamps the shared cumulative state onto ev. It must only run on the
// sequential consume path (workers idle), where the solver contexts are
// quiescent.
func (s *search) fill(ev *ProgressEvent) {
	ev.Seq = s.progSeq
	ev.T = s.opts.Now().Sub(s.started)
	ev.Wave = s.waveIdx
	ev.Workers = s.opts.workersWidth()
	ev.Nodes = s.nodes
	ev.Open = s.queue.Len()
	ev.Pivots = s.stats.Pivots
	ev.Relaxations = s.stats.Relaxations
	ev.WarmSolves = s.stats.WarmSolves
	ev.ColdSolves = s.stats.ColdSolves
	t := s.solverTotals()
	ev.FallbackColds = t.FallbackCold
	ev.WarmInfeasibles = t.WarmInfeasible
	ev.PrimalPivots = t.PrimalPivots
	ev.DualPivots = t.DualPivots
	ev.Refactorizations = t.Refactorizations
	ev.EtaPeak = t.EtaPeak
	ev.ReducedCostFixed = s.stats.ReducedCostFixed
	ev.PrunedBound = s.stats.PrunedBound
	ev.PrunedInfeasible = s.stats.PrunedInfeasible
	ev.IntegralNodes = s.stats.IntegralNodes
	ev.BranchedNodes = s.stats.BranchedNodes
	ev.QueuePruned = s.stats.QueuePruned
	s.progSeq++
}

// emitStart announces the problem shape before the root relaxation solves.
func (s *search) emitStart() {
	if s.opts.Progress == nil {
		return
	}
	ints := 0
	for _, isInt := range s.p.Integer {
		if isInt {
			ints++
		}
	}
	ev := ProgressEvent{
		Kind:        ProgressStart,
		Bound:       math.Inf(1),
		Vars:        s.p.LP.NumVars(),
		IntVars:     ints,
		Constraints: len(s.p.LP.Constraints),
	}
	s.fill(&ev)
	s.opts.Progress(ev)
}

// emitWave reports one consumed wave; bound is the current global bound.
func (s *search) emitWave(waveSize int, bound float64) {
	if s.opts.Progress == nil {
		return
	}
	ev := ProgressEvent{
		Kind:      ProgressWave,
		WaveSize:  waveSize,
		HasInc:    s.best.HasX,
		Incumbent: s.best.Objective,
		Bound:     bound,
	}
	s.fill(&ev)
	s.opts.Progress(ev)
}

// emitIncumbent reports an incumbent improvement; bound is the global bound
// recorded with the incumbent (the same value recordIncumbent stores).
func (s *search) emitIncumbent(obj, bound float64) {
	if s.opts.Progress == nil {
		return
	}
	ev := ProgressEvent{
		Kind:      ProgressIncumbent,
		HasInc:    true,
		Incumbent: obj,
		Bound:     bound,
	}
	s.fill(&ev)
	s.opts.Progress(ev)
}

// emitEnd reports the terminal state; it runs inside finish, after the
// statistics are stamped, so the event and Stats agree.
func (s *search) emitEnd(sol *Solution, bound float64) {
	if s.opts.Progress == nil {
		return
	}
	ev := ProgressEvent{
		Kind:      ProgressEnd,
		HasInc:    sol.HasX,
		Incumbent: sol.Objective,
		Bound:     bound,
		Status:    sol.Status,
	}
	s.fill(&ev)
	ev.Nodes = sol.Nodes // NodeLimit copies may lag s.nodes by pre-popped waves
	s.opts.Progress(ev)
}
