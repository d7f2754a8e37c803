// Package milp solves mixed-integer linear programs by LP-relaxation-based
// branch and bound, using the simplex solver from package lp. It is the
// from-scratch stand-in for the GAMS + CPLEX 12.6.1 pipeline the paper uses
// to solve the in-situ analysis scheduling model.
//
// The solver performs best-first search on the LP bound, rounds every
// branched relaxation for an incumbent (on a model that declares the
// multiple-choice knapsack shape, repairing the rounded-down point class by
// class; see repair.go), branches on the most fractional
// integer variable, prunes nodes whose LP bound cannot beat the incumbent,
// and by the same cut-off fixes columns whose root reduced cost alone rules
// them out. A node is its parent plus one bound change, re-solved by the
// dual simplex from the parent's optimal basis. One wave-synchronous driver
// runs every search; Options.Workers is the wave width
// (see Solve for the determinism contract). For the pure-binary compact
// scheduling models in package core, solve times are well under a
// millisecond; the time-indexed full model with hundreds of binaries solves
// in milliseconds at test scale.
package milp

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"insitu/internal/lp"
	"insitu/internal/obs"
)

// ErrCanceled is wrapped by the error Solve returns when Options.Ctx is
// canceled mid-search. Callers distinguish abandonment (client hung up,
// deadline passed) from solver failure with errors.Is.
var ErrCanceled = errors.New("milp: solve canceled")

// Problem is a linear program plus integrality markers.
type Problem struct {
	LP *lp.Problem
	// Integer[j] requires variable j to take an integer value.
	Integer []bool
}

// NewProblem wraps an LP with an all-continuous integrality vector.
func NewProblem(base *lp.Problem) *Problem {
	return &Problem{LP: base, Integer: make([]bool, base.NumVars())}
}

// AddBinVar appends a 0-1 variable to the underlying LP.
func (p *Problem) AddBinVar(obj float64, name string) int {
	j := p.LP.AddVar(obj, 0, 1, name)
	p.Integer = append(p.Integer, true)
	return j
}

// AddContVar appends a continuous variable with lower bound 0 to the
// underlying LP.
func (p *Problem) AddContVar(obj, upper float64, name string) int {
	j := p.LP.AddVar(obj, 0, upper, name)
	p.Integer = append(p.Integer, false)
	return j
}

// Status describes the outcome of a MILP solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	NodeLimit // search stopped early; Solution holds the best incumbent if any
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case NodeLimit:
		return "node-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of a MILP solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	HasX      bool // whether X holds an incumbent (false for Infeasible)
	// Stats describes the search that produced this solution.
	Stats Stats
}

// Stats instruments one branch-and-bound search — the reproduction's
// counterpart of the solve statistics CPLEX prints (the paper reports
// 0.17-1.36 s solve times on its instances; these counters show where that
// time goes).
type Stats struct {
	Nodes int // nodes explored (root included)
	// Relaxations and Pivots count the LP relaxations solved and the simplex
	// iterations spent on them, the rounding heuristic's LP solves included.
	// On a pure-integer model the heuristic solves none (it checks the
	// rounded point against the rows directly), so there Relaxations equals
	// the node solves.
	Relaxations int
	Pivots      int
	// BestBound is the best remaining upper bound on the objective at
	// termination. At proven optimality it equals the incumbent objective
	// (so BestBound >= Objective always holds up to tolerance); under a node
	// limit it is the tightest bound the open nodes still allow, making
	// BestBound-Objective the residual optimality gap CPLEX would report.
	BestBound float64
	// RootBound is the root relaxation's objective, solved over the box
	// presolve left: -Inf when presolve or the root found the model
	// infeasible, +Inf when the root is unbounded. RootBound-Objective is the
	// root gap.
	RootBound float64
	// NodesToBest is the explored node that found the final incumbent (0 when
	// the root's rounding or the root itself did, and when there is none), so
	// Nodes-NodesToBest are the nodes the search spent proving it optimal.
	NodesToBest int
	SolveTime   time.Duration // wall time of the search
	// Workers is the wave width the search ran with (at least 1).
	// WarmSolves/ColdSolves split the node relaxations by path: warm from
	// the parent's basis, or cold (the root, warm attempts that fell back or
	// had to be redone, and everything under NoWarmStart); heuristic
	// re-solves, always cold, are excluded. PresolveTightened counts the
	// root bound reductions, 0 on a model that declares its shape
	// (lp.Problem.Classes), which presolve skips. All three are deterministic
	// for a fixed Workers value.
	Workers           int
	WarmSolves        int
	ColdSolves        int
	PresolveTightened int
	// FallbackColds counts warm node re-solves whose basis restoration
	// failed and fell through to the cold path (a subset of ColdSolves),
	// summed over the worker solver contexts.
	FallbackColds int
	// WarmInfeasibles counts warm re-solves the dual simplex certified
	// infeasible outright (a subset of WarmSolves): the node was pruned on a
	// Farkas-style certificate with no cold phase-1 confirmation.
	WarmInfeasibles int
	// PrimalPivots and DualPivots split the basis-changing simplex work by
	// algorithm (Pivots additionally counts bound-flip iterations), and
	// Refactorizations/EtaPeak describe the basis-factorization machinery —
	// all summed (EtaPeak: maxed) over the solver contexts, heuristic solver
	// included. See lp.SolverStats for the per-context semantics.
	PrimalPivots     int
	DualPivots       int
	Refactorizations int
	EtaPeak          int
	// PricedColumns and FullPricingPasses measure primal pricing the same
	// way (summed over the solver contexts): columns priced, and passes that
	// took in every column. See lp.SolverStats.
	PricedColumns     int
	FullPricingPasses int
	// ReducedCostFixed counts the integer columns fixed at their root resting
	// bound because the root reduced cost alone prices any move off it out of
	// contention against the incumbent (see search.fixByReducedCost).
	ReducedCostFixed int
	// Prune-reason taxonomy over explored nodes:
	// Nodes == PrunedBound + PrunedInfeasible + IntegralNodes + BranchedNodes.
	PrunedBound      int // relaxation solved but dominated by the incumbent
	PrunedInfeasible int // relaxation infeasible
	IntegralNodes    int // relaxation already integer feasible
	BranchedNodes    int // expanded into two children
	// QueuePruned counts nodes discarded at pop time by the incumbent bound,
	// without an LP solve; they are not explored nodes.
	QueuePruned int
}

// Add accumulates the effort of another search into s, for callers that
// answer one request with several solves: every counter and SolveTime sum
// (so Nodes still equals the prune-reason taxonomy, and Nodes-NodesToBest the
// proof nodes of all of them), EtaPeak takes the maximum, and Workers follows
// o. BestBound and RootBound describe a single search and are left alone.
func (s *Stats) Add(o *Stats) {
	s.Nodes += o.Nodes
	s.NodesToBest += o.NodesToBest
	s.Relaxations += o.Relaxations
	s.Pivots += o.Pivots
	s.SolveTime += o.SolveTime
	s.Workers = o.Workers
	s.WarmSolves += o.WarmSolves
	s.ColdSolves += o.ColdSolves
	s.PresolveTightened += o.PresolveTightened
	s.FallbackColds += o.FallbackColds
	s.WarmInfeasibles += o.WarmInfeasibles
	s.PrimalPivots += o.PrimalPivots
	s.DualPivots += o.DualPivots
	s.Refactorizations += o.Refactorizations
	if o.EtaPeak > s.EtaPeak {
		s.EtaPeak = o.EtaPeak
	}
	s.PricedColumns += o.PricedColumns
	s.FullPricingPasses += o.FullPricingPasses
	s.ReducedCostFixed += o.ReducedCostFixed
	s.PrunedBound += o.PrunedBound
	s.PrunedInfeasible += o.PrunedInfeasible
	s.IntegralNodes += o.IntegralNodes
	s.BranchedNodes += o.BranchedNodes
	s.QueuePruned += o.QueuePruned
}

// NodeEvent is the node record of a serialized Tree, converted from the
// node flight record of the same node (see obs.SolveProgress). Node ids are
// the 1-based exploration order, so a recorded tree is also a replay of the
// search.
type NodeEvent struct {
	Node int `json:"id"` // 1-based node count, root is 1
	// Parent is the Node id of the explored node whose branching created
	// this one (0 for the root). Children whose parents were pruned before
	// their relaxation solved are never recorded, so parent links always
	// refer to previously streamed nodes — which is what lets TreeRecorder
	// rebuild the search tree from the flight stream alone.
	Parent    int     `json:"parent"`
	Depth     int     `json:"depth"`         // branching depth (root is 0)
	Bound     float64 `json:"bound"`         // the node's LP relaxation bound
	Incumbent float64 `json:"incumbent"`     // best integer objective known so far
	HasInc    bool    `json:"has_incumbent"` // whether Incumbent is meaningful
	// Action describes how the node was resolved: "integral" (relaxation
	// was integer feasible), "infeasible", "branched", or "pruned"
	// (dominated by the incumbent after its relaxation solved).
	Action string `json:"action"`
	// BranchVar is the variable the branch leading here fixed (-1 for the
	// root), BranchDir the direction ("down" tightened the upper bound,
	// "up" the lower bound, "" at the root), and BranchBound the bound that
	// was applied.
	BranchVar   int     `json:"branch_var"`
	BranchDir   string  `json:"branch_dir,omitempty"`
	BranchBound float64 `json:"branch_bound,omitempty"`
}

// Options tune the branch-and-bound search. The zero value selects defaults.
type Options struct {
	// MaxNodes caps the number of explored nodes (default 200000).
	MaxNodes int
	// Progress, when non-nil, streams the solver flight recording as
	// obs.SolveProgress records: one start record (problem shape), one node
	// record per explored node (its outcome and place in the tree), one per
	// incumbent improvement, and one end record (status; its counters equal
	// Solution.Stats). Counters are cumulative since the start of the solve,
	// so a suffix of the stream still reads correct totals. It runs
	// synchronously on the sequential in-order consume path, so the stream
	// is deterministic for a fixed Workers width at any actual parallelism,
	// every field but the wall-clock TUS; it must be cheap. It is the one
	// hook the telemetry layer uses: flight recorders, tree recorders and
	// tracers all read this stream. A nil Progress costs nothing.
	Progress func(obs.SolveProgress)
	// Now is the clock used for Stats.SolveTime (default time.Now);
	// injectable so tests are deterministic.
	Now func() time.Time
	// Workers is the wave width: how many best-bound nodes are popped and
	// solved concurrently per iteration (0 and 1 both mean a wave of one).
	// The explored tree is deterministic for a fixed width, and the returned
	// objective and terminal bound are identical at any width. Programs
	// leave it at the default; only the benchmark harness, perfbench,
	// solvercheck and the determinism tests set it.
	Workers int
	// NoWarmStart solves every node relaxation cold instead of from its
	// parent's basis — the only way to ask for cold nodes, at any width. The
	// perfbench suite uses it to measure warm-start pivot savings.
	NoWarmStart bool
	// Ctx, when non-nil, scopes the search to a caller's lifetime in two
	// ways: the search checks it between waves and aborts with an error
	// wrapping ErrCanceled once it is done, and it becomes the base context
	// for the solver's pprof phase labels, so request-scoped labels (e.g.
	// schedd's request IDs) survive into CPU profiles of the solve. A nil
	// Ctx is never canceled and roots the labels at context.Background().
	Ctx context.Context
}

// context returns the search's base context, never nil.
func (o Options) context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = 200000
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// node is one open subproblem, stored as a delta against its parent: the one
// bound its branch moved, and the parent's optimal basis to re-solve from.
// Its full bound vectors exist only while it is being solved (see
// search.bounds), so an open node costs a few words however many variables
// the model has.
type node struct {
	parent *node     // nil at the root
	warm   *lp.Basis // the parent's optimal basis; dropped once this node is solved
	bound  float64   // LP bound: the parent's relaxation objective until solved
	depth  int
	id     int // explored-node id, assigned when the node is consumed

	// The branching decision that created this node (branchVar -1 at the
	// root): up tightened the lower bound to branchBound, down the upper.
	branchVar   int
	up          bool
	branchBound float64
}

type nodeQueue []*node

func (q nodeQueue) Len() int            { return len(q) }
func (q nodeQueue) Less(i, j int) bool  { return q[i].bound > q[j].bound } // best bound first
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x interface{}) { *q = append(*q, x.(*node)) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil // release the node to the GC
	*q = old[:n-1]
	return it
}

// search carries the state of one branch-and-bound run. Searches come from
// searchPool, every buffer of one sized over the arrays the pooled search
// held: Solve takes one and gives it back, with its solvers, when it returns.
type search struct {
	p           *Problem
	opts        Options
	started     time.Time
	stats       Stats
	integralObj bool
	best        Solution // X is incumbent's array; finish copies it out
	queue       nodeQueue
	nodes       int
	// The presolved root box every node's bounds are materialised from,
	// scratch for a relaxation's snapped point, and the incumbent's point.
	rootLower, rootUpper, snapped, incumbent []float64
	// The root relaxation's objective, reduced costs and nonbasic resting
	// sides, kept for reduced-cost fixing; rootRC is empty when there is none
	// to fix by (no root solved yet, or one integral as it stands).
	rootObj     float64
	rootRC      []float64
	rootAtUpper []bool
	// The wave: its slots, their bound scratch, the rounding heuristic, and
	// the nodes popped and solved together.
	slots      []slot
	slotBounds []float64
	heur       heurCtx
	wave       []*node
	results    []nodeResult
	// roundCtx is the base context labeled solver_phase=incumbent.
	roundCtx context.Context

	// Flight-recording state: the progress-event sequence number and the
	// node solver contexts (for warm-fallback totals). Both are touched only
	// on the sequential consume path.
	progSeq int
	solvers []*lp.Solver
}

// searchPool holds searches between solves, each with the buffers it last
// grew.
var searchPool = sync.Pool{New: func() any { return new(search) }}

// newSearch validates the problem before anything reads it and prepares the
// shared search state, in a search from searchPool: one solver per wave slot,
// plus the rounding heuristic's where the model has continuous variables.
func newSearch(p *Problem, opts Options) (*search, error) {
	started := opts.Now()
	if len(p.Integer) != p.LP.NumVars() {
		return nil, fmt.Errorf("milp: integrality vector has %d entries for %d variables", len(p.Integer), p.LP.NumVars())
	}
	k := opts.workersWidth()
	if hasContinuous(p) {
		k++
	}
	solvers, err := lp.NewSolvers(p.LP, k) // the one Validate of the solve
	if err != nil {
		return nil, err
	}
	// Integer variables need finite bounds for branching to terminate; the
	// scheduling models always provide them.
	for j, isInt := range p.Integer {
		if isInt && math.IsInf(p.LP.Upper[j], 1) {
			lp.Release(solvers)
			return nil, fmt.Errorf("milp: integer variable %d (%s) has infinite upper bound", j, name(p.LP, j))
		}
	}

	s := searchPool.Get().(*search)
	n := p.LP.NumVars()
	*s = search{
		p: p, opts: opts, started: started, solvers: solvers,
		best: Solution{Status: Infeasible, Objective: math.Inf(-1)}, queue: s.queue[:0],
		rootLower: append(s.rootLower[:0], p.LP.Lower...), rootUpper: append(s.rootUpper[:0], p.LP.Upper...),
		snapped: lp.Resize(s.snapped, n), incumbent: lp.Resize(s.incumbent, n),
		rootRC: s.rootRC[:0], rootAtUpper: s.rootAtUpper[:0],
		slots: s.slots, slotBounds: s.slotBounds, heur: s.heur, wave: s.wave, results: s.results,
	}
	s.stats.RootBound = math.Inf(-1)

	// When every objective coefficient on integer variables is integral and
	// continuous variables carry no objective, all integer-feasible
	// objectives are integers, so a node whose LP bound is below
	// incumbent+1 can be pruned. This collapses plateaus of symmetric
	// solutions (e.g. equally weighted analyses).
	s.integralObj = true
	for j, c := range p.LP.Objective {
		if p.Integer[j] {
			if math.Abs(c-math.Round(c)) > lp.ZeroTol {
				s.integralObj = false
				break
			}
		} else if c != 0 {
			s.integralObj = false
			break
		}
	}

	return s, nil
}

// release gives the search's solvers back to lp and the search to
// searchPool. What Solve returns holds nothing of either: finish copied the
// incumbent out. The open nodes a node limit or a cancellation left are
// dropped, so a pooled search does not keep their bases alive.
func (s *search) release() {
	lp.Release(s.solvers)
	clear(s.queue)
	searchPool.Put(s)
}

// finish stamps the search statistics and the terminal bound onto sol, gives
// it its own copy of its point, and emits the end flight record, which
// carries these very Stats.
func (s *search) finish(sol *Solution, bound float64) *Solution {
	sol.X = slices.Clone(sol.X)
	st := s.counters()
	st.BestBound = bound
	st.SolveTime = s.opts.Now().Sub(s.started)
	sol.Stats = st
	if s.opts.Progress != nil {
		end := obs.SolveProgress{Kind: obs.SolveProgEnd, HasInc: sol.HasX, Incumbent: sol.Objective, Status: sol.Status.String()}
		s.emit(end, bound, sol.Stats)
	}
	return sol
}

// pruneTol is the margin a node bound must clear above the incumbent to
// stay interesting.
func (s *search) pruneTol() float64 {
	if s.integralObj && s.best.HasX {
		// Bound must reach at least incumbent+1 to matter.
		return 1 - lp.BoundTol
	}
	return lp.BoundTol
}

// globalBound is the best remaining upper bound: the maximum of the open
// nodes' bounds (the heap keeps the best first), the incumbent, and extra —
// the best bound among nodes popped for the current wave but not yet
// processed (-Inf outside a wave).
func (s *search) globalBound(extra float64) float64 {
	b := math.Inf(-1)
	if s.best.HasX {
		b = s.best.Objective
	}
	if s.queue.Len() > 0 && s.queue[0].bound > b {
		b = s.queue[0].bound
	}
	if extra > b {
		b = extra
	}
	return b
}

// bounds materialises nd's variable bounds into lower/upper: the presolved
// root box, tightened by one entry per ancestor. Branch bounds only tighten
// going down the tree, so the order of the walk does not matter.
func (s *search) bounds(nd *node, lower, upper []float64) {
	copy(lower, s.rootLower)
	copy(upper, s.rootUpper)
	for ; nd.parent != nil; nd = nd.parent {
		j := nd.branchVar
		if nd.up {
			lower[j] = math.Max(lower[j], nd.branchBound)
		} else {
			upper[j] = math.Min(upper[j], nd.branchBound)
		}
	}
}

// expand branches nd on j, the most fractional variable of its relaxation x
// under lp.IntTol, and queues both children, each carrying basis — nd's optimal
// basis — to warm start from.
//
// A relaxation that is integral within lp.IntTol (j < 0) reaches here only when
// its snapped point failed the rows (see consume); it is branched on whatever
// fractionality is left, with no tolerance on the new bounds — rounding
// v ± lp.IntTol would hand a child the parent's box back.
func (s *search) expand(nd *node, x []float64, j int, basis *lp.Basis) {
	tol := lp.IntTol
	if j < 0 {
		tol = 0
		if j = mostFractional(s.p, x, tol); j < 0 {
			return
		}
	}
	child := node{parent: nd, warm: basis, bound: nd.bound, depth: nd.depth + 1, branchVar: j}
	down, up := child, child
	down.branchBound = math.Floor(x[j] + tol)
	up.up, up.branchBound = true, math.Ceil(x[j]-tol)
	heap.Push(&s.queue, &down)
	heap.Push(&s.queue, &up)
}

// account charges one node relaxation to the search statistics.
func (s *search) account(relax *lp.Solution, warm bool) {
	s.stats.Relaxations++
	s.stats.Pivots += relax.Iters
	if warm {
		s.stats.WarmSolves++
	} else {
		s.stats.ColdSolves++
	}
}

// consume processes one solved node: account it, then dispatch on
// infeasible / pruned / integral / branched. sl is the slot that solved it,
// still sitting on the node's final basis. extra is the best bound among
// popped-but-unprocessed wave nodes (-Inf for the last of a wave), folded
// into the global bound recorded with new incumbents.
func (s *search) consume(nd *node, res nodeResult, sl *slot, heur *heurCtx, extra float64) {
	s.nodes++
	nd.id = s.nodes
	nd.warm = nil
	relaxSol := res.sol
	s.account(relaxSol, res.warm)
	if relaxSol.Status != lp.Optimal {
		s.stats.PrunedInfeasible++
		s.emitNode(nd, nd.bound, "infeasible", extra)
		return // infeasible subtree (unbounded cannot appear below a bounded root)
	}
	if s.best.HasX && relaxSol.Objective <= s.best.Objective+s.pruneTol() {
		s.stats.PrunedBound++
		s.emitNode(nd, relaxSol.Objective, "pruned", extra)
		return
	}
	// A relaxation integral within lp.IntTol counts as integral only if its
	// snapped point still satisfies the rows: a binary at 1-1e-6 on a ~1500 s
	// cost overshoots the time row by ~1.5e-3 once rounded up. Such a node is
	// branched instead (expand splits on the residual fractionality). The one
	// fractionality scan answers the integral test, rounding's and branching.
	frac := mostFractional(s.p, relaxSol.X, lp.IntTol)
	if frac < 0 {
		if x := snap(s.snapped, s.p, relaxSol.X); s.p.LP.Feasible(x) {
			s.offer(x, math.Max(relaxSol.Objective, s.globalBound(extra)))
			s.stats.IntegralNodes++
			s.emitNode(nd, relaxSol.Objective, "integral", extra)
			return
		}
	}
	// Rounding runs at every branched node, so its pprof label is the
	// context built once in Solve rather than a pprof.Do per node.
	pprof.SetGoroutineLabels(s.roundCtx)
	if x, ok := heur.round(s.p, relaxSol.X, frac < 0, &s.stats); ok {
		s.offer(x, math.Max(relaxSol.Objective, s.globalBound(extra)))
	}
	pprof.SetGoroutineLabels(s.opts.context())
	s.stats.BranchedNodes++
	nd.bound = relaxSol.Objective
	s.expand(nd, relaxSol.X, frac, sl.basis())
	s.emitNode(nd, relaxSol.Objective, "branched", extra)
}

// offer makes a copy of the integer-feasible point x, in the incumbent's
// array, the incumbent if it improves on the current one; bound is the global
// bound its incumbent record carries.
func (s *search) offer(x []float64, bound float64) {
	if obj := s.p.LP.Eval(x); !s.best.HasX || obj > s.best.Objective {
		s.best = Solution{Status: Optimal, X: append(s.incumbent[:0], x...), Objective: obj, HasX: true}
		s.stats.NodesToBest = s.nodes
		s.emitIncumbent(obj, bound)
		s.fixByReducedCost()
	}
}

// fixByReducedCost shrinks the root box against the incumbent: an integer
// column nonbasic at the root with reduced cost d moves the objective of any
// feasible point by at most -|d| per unit it leaves its resting bound (the
// root duals price every point of the box, whatever has been fixed since), so
// once rootObj - |d| is within pruneTol of the incumbent every point that
// moves it — by a whole unit at least — is one the search would prune, and
// the column is fixed where it rests. That is the node-pruning cut-off
// applied to a column instead of a node: what it discards, pruning would
// have discarded, and the integral-objective margin and node-limit bounds
// mean what they meant. Every node materialised afterwards inherits
// the fix, and the LP layer skips fixed columns in the dual ratio test and in
// pricing. Continuous columns are never fixed, nor one resting on a
// fractional bound (its nearest integer point is less than a unit away).
func (s *search) fixByReducedCost() {
	if len(s.rootRC) == 0 {
		return
	}
	room := s.rootObj - (s.best.Objective + s.pruneTol())
	if room <= 0 {
		return // every open node is about to be pruned by bound anyway
	}
	for j, d := range s.rootRC {
		if math.Abs(d) < room || !s.p.Integer[j] || s.rootLower[j] == s.rootUpper[j] {
			continue
		}
		rest := s.rootLower[j]
		if s.rootAtUpper[j] {
			rest = s.rootUpper[j]
		}
		if rest != math.Floor(rest) {
			continue
		}
		s.rootLower[j], s.rootUpper[j] = rest, rest
		s.stats.ReducedCostFixed++
	}
}

// openRoot solves the root relaxation, seeds the incumbent with the
// rounding heuristic, and either finishes the search outright (root
// infeasible, unbounded, or already integral) or queues the root's
// children. done is non-nil when the search is complete.
func (s *search) openRoot(sl *slot, heur *heurCtx) (done *Solution, err error) {
	root := &node{branchVar: -1, id: 1}
	var relax *lp.Solution
	var warm bool
	pprof.Do(s.opts.context(), pprof.Labels("solver_phase", "root"), func(context.Context) {
		relax, warm = sl.solver.Solve(s.rootLower, s.rootUpper)
	})
	s.account(relax, warm)
	switch relax.Status {
	case lp.Infeasible:
		return s.finish(&Solution{Status: Infeasible}, math.Inf(-1)), nil
	case lp.Unbounded:
		s.stats.RootBound = math.Inf(1)
		return s.finish(&Solution{Status: Unbounded}, math.Inf(1)), nil
	case lp.IterationLimit:
		return nil, fmt.Errorf("milp: root relaxation hit the simplex iteration limit")
	}
	root.bound = relax.Objective
	s.stats.RootBound = relax.Objective

	// A root that will be branched keeps its duals for reduced-cost fixing,
	// read before anything else is solved on the slot.
	frac := mostFractional(s.p, relax.X, lp.IntTol)
	integral := frac < 0
	if !integral {
		rc, atUpper := lp.Resize(s.rootRC, len(relax.X)), lp.Resize(s.rootAtUpper, len(relax.X))
		if sl.solver.ReducedCosts(rc, atUpper) {
			s.rootObj, s.rootRC, s.rootAtUpper = relax.Objective, rc, atUpper
		}
	}

	// Seed the incumbent by rounding the root relaxation.
	if x, ok := heur.round(s.p, relax.X, integral, &s.stats); ok {
		s.offer(x, root.bound)
	}

	s.nodes = 1
	if integral {
		x := snap(s.snapped, s.p, relax.X)
		if s.p.LP.Feasible(x) {
			obj := s.p.LP.Eval(x)
			s.best = Solution{Status: Optimal, X: append(s.incumbent[:0], x...), Objective: obj, HasX: true}
			s.emitIncumbent(obj, root.bound)
			s.stats.IntegralNodes++
			// Nothing else is open: the root's bound is the global one.
			s.emitNode(root, root.bound, "integral", root.bound)
			out := s.best
			return s.finish(&out, obj), nil
		}
	}
	s.stats.BranchedNodes++
	s.expand(root, relax.X, frac, sl.basis())
	s.emitNode(root, root.bound, "branched", math.Inf(-1))
	return nil, nil
}

// slot is one lane of the wave: the solver that solves the lane's node and
// the scratch its bounds are materialised into. Wave node i always runs on
// slot i, so each solver sees a deterministic node sequence.
type slot struct {
	solver       *lp.Solver
	lower, upper []float64
}

// basis snapshots the optimal basis the slot's solver sits on, for the
// children of the node it just solved (nil when nodes are solved cold).
func (sl *slot) basis() *lp.Basis {
	if sl.solver.NoWarm {
		return nil
	}
	return sl.solver.Basis()
}

// nodeResult is one node's solved relaxation plus the path that produced it.
// sol, X included, is the slot solver's own, valid until that slot solves its
// next node.
type nodeResult struct {
	sol  *lp.Solution
	warm bool
}

// solveNode solves one node's relaxation on a slot, warm-started from the
// parent's basis. A warm answer above the parent bound is numerically
// suspect (a child's relaxation can never beat its parent's), so it is
// re-solved cold before anyone trusts it. pctx is the pprof label base — the
// wave workers pass their already-labeled context so the warm-resolve label
// nests under the wave/worker labels.
func (s *search) solveNode(pctx context.Context, sl *slot, nd *node) nodeResult {
	s.bounds(nd, sl.lower, sl.upper)
	sol, warm := sl.solver.SolveFrom(nd.warm, sl.lower, sl.upper)
	if warm && sol.Objective > nd.bound+lp.BoundTol {
		pprof.Do(pctx, pprof.Labels("solver_phase", "warm-resolve"), func(context.Context) {
			sol = sl.solver.SolveCold(sl.lower, sl.upper)
		})
		warm = false
	}
	return nodeResult{sol: sol, warm: warm}
}

// solveWave solves the wave's relaxations into results, node i on slot i; a
// wave of one runs on the caller's goroutine.
func (s *search) solveWave(pctx context.Context, slots []slot, wave []*node, results []nodeResult) {
	if len(wave) == 1 {
		results[0] = s.solveNode(pctx, &slots[0], wave[0])
		return
	}
	var wg sync.WaitGroup
	for g := range wave {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The phase label attributes wave-solve CPU (and each
			// worker's share of it) in pprof profiles.
			pprof.Do(pctx, pprof.Labels(
				"solver_phase", "wave",
				"solver_worker", strconv.Itoa(g),
			), func(lctx context.Context) {
				results[g] = s.solveNode(lctx, &slots[g], wave[g])
			})
		}()
	}
	wg.Wait()
}

// Solve runs branch and bound and returns the best integer-feasible
// solution, or an error for a p that lp.Problem.Validate refuses. After a
// root presolve (bound tightening, see presolve.go) of a model that declares
// no shape — over a declared one it could only lower an upper bound above 1
// in a class or close a column too big for a knapsack row by itself, which
// the builders never emit — each
// iteration pops up to Workers best-bound nodes (a "wave"), solves their
// relaxations concurrently — node i on slot i, each warm-started from its
// parent's optimal basis, so what a solve starts from depends on the tree
// and the slot, never on scheduling — and then consumes the results
// sequentially in pop order. Because pruning, incumbent updates, progress
// records, and branching all happen in that sequential consume step, the
// search explores a deterministic tree for a fixed Workers value and streams
// its progress records in a deterministic order; and since best-first search
// with the same pruning rule visits the same optimum, the returned objective
// and terminal bound are identical at any width (only the explored tree may
// differ between widths).
func Solve(p *Problem, opts Options) (*Solution, error) {
	opts = opts.withDefaults()
	s, err := newSearch(p, opts)
	if err != nil {
		return nil, err
	}
	defer s.release()
	s.emitStart()
	w := opts.workersWidth()
	pctx := opts.context()
	s.roundCtx = pprof.WithLabels(pctx, pprof.Labels("solver_phase", "incumbent"))

	n := p.LP.NumVars()
	if p.LP.Classes == 0 { // see above for why a declared model skips presolve
		var infeasible bool
		pprof.Do(pctx, pprof.Labels("solver_phase", "presolve"), func(context.Context) {
			s.stats.PresolveTightened, infeasible = presolveBounds(p, s.rootLower, s.rootUpper)
		})
		if infeasible {
			return s.finish(&Solution{Status: Infeasible}, math.Inf(-1)), nil
		}
	}
	solvers := s.solvers // Stats and flight events sum their lp counters
	slots := lp.Resize(s.slots, w)
	s.slots, s.slotBounds = slots, lp.Resize(s.slotBounds, 2*n*w)
	scratch := s.slotBounds
	for g := range slots {
		solver := solvers[g]
		solver.Lean = true
		solver.NoWarm = opts.NoWarmStart
		slots[g] = slot{solver: solver, lower: scratch[:n:n], upper: scratch[n : 2*n : 2*n]}
		scratch = scratch[2*n:]
	}
	var heurSolver *lp.Solver
	if len(solvers) > w {
		heurSolver = solvers[w]
	}
	heur := &s.heur
	heur.init(p, heurSolver)
	if done, err := s.openRoot(&slots[0], heur); done != nil || err != nil {
		return done, err
	}

	s.wave, s.results = lp.Resize(s.wave, w)[:0], lp.Resize(s.results, w)
	wave, results := s.wave, s.results
	for {
		if err := pctx.Err(); err != nil {
			return nil, fmt.Errorf("%w after %d nodes: %v", ErrCanceled, s.nodes, err)
		}
		// Assemble the next wave: best-bound order, pre-pruning against the
		// current incumbent, and never popping more nodes than the node
		// budget allows.
		wave = wave[:0]
		for len(wave) < w && s.queue.Len() > 0 && s.nodes+len(wave) < opts.MaxNodes {
			nd := heap.Pop(&s.queue).(*node)
			if s.best.HasX && nd.bound <= s.best.Objective+s.pruneTol() {
				s.stats.QueuePruned++
				continue // pruned by bound before solving; not an explored node
			}
			wave = append(wave, nd)
		}
		if len(wave) == 0 {
			if s.queue.Len() == 0 {
				break
			}
			// Budget exhausted with open nodes left.
			out := s.best
			out.Status = NodeLimit
			return s.finish(&out, s.globalBound(math.Inf(-1))), nil
		}

		s.solveWave(pctx, slots, wave, results)

		for i, nd := range wave {
			// Popped-but-unprocessed wave nodes are open too; the wave is in
			// descending bound order, so the next node carries the best of
			// them for global-bound purposes.
			extra := math.Inf(-1)
			if i+1 < len(wave) {
				extra = wave[i+1].bound
			}
			s.consume(nd, results[i], &slots[i], heur, extra)
		}
	}

	out := s.best
	// Queue exhausted: the search proved nothing above the incumbent
	// remains, so the terminal bound collapses onto the objective.
	bound := math.Inf(-1)
	if out.HasX {
		bound = out.Objective
	}
	return s.finish(&out, bound), nil
}

func name(p *lp.Problem, j int) string {
	if j < len(p.Names) && p.Names[j] != "" {
		return p.Names[j]
	}
	return fmt.Sprintf("x%d", j)
}

// mostFractional returns the integer variable whose value is farthest from
// integrality, or -1 if none is fractional beyond tol — which is to say every
// integer variable is integral within tol.
func mostFractional(p *Problem, x []float64, tol float64) int {
	best, bestDist := -1, tol
	for j, isInt := range p.Integer {
		if !isInt {
			continue
		}
		d := math.Abs(x[j] - math.Round(x[j]))
		if d > bestDist {
			bestDist = d
			best = j
		}
	}
	return best
}

// snap writes x with its integer variables rounded to the nearest integer
// into dst, which it returns.
func snap(dst []float64, p *Problem, x []float64) []float64 {
	copy(dst, x)
	for j, isInt := range p.Integer {
		if isInt {
			dst[j] = math.Round(dst[j])
		}
	}
	return dst
}

// hasContinuous reports whether any variable of p is continuous.
func hasContinuous(p *Problem) bool {
	for _, isInt := range p.Integer {
		if !isInt {
			return true
		}
	}
	return false
}

// heurCtx is the rounding heuristic's reusable state: the candidate's
// scratch, plus — when the model has continuous variables to re-optimise —
// one cold solver (heuristic solves fix every integer variable, so a warm
// basis rarely survives) and the upper bounds it solves under, or — when it
// has none — the class-wise repair of the floor point. A search keeps one,
// and its arrays, across solves.
type heurCtx struct {
	solver *lp.Solver // nil: candidates are checked directly, no LP
	lower  []float64  // the candidate, or the lower bounds it is solved under
	upper  []float64  // nil without a solver
	// What the integer variables' bounds allow, fixed for the search: some
	// box holds no integer (only an integral x rounds), or every bound is an
	// integer already (it is its own ceiling or floor).
	noInteger, integralBounds bool
	rep                       repair // active only without a solver, on a declared model
}

// init prepares the heuristic for p over solver, which Solve passes exactly
// when p has continuous variables and nil otherwise; it is switched to lean,
// always-cold solves. The scratch is resized over the arrays h held.
func (h *heurCtx) init(p *Problem, solver *lp.Solver) {
	upper, rep := h.upper, h.rep
	*h = heurCtx{solver: solver, lower: lp.Resize(h.lower, p.LP.NumVars()), integralBounds: true, rep: rep}
	if solver != nil {
		solver.Lean = true
		solver.NoWarm = true
		h.upper = lp.Resize(upper, p.LP.NumVars())
	}
	h.rep.stale, h.rep.active = solver == nil && p.LP.Classes > 0, false
	for j, isInt := range p.Integer {
		if !isInt {
			continue
		}
		lo, hi := math.Ceil(p.LP.Lower[j]), math.Floor(p.LP.Upper[j])
		h.noInteger = h.noInteger || lo > hi
		h.integralBounds = h.integralBounds && lo == p.LP.Lower[j] && hi == p.LP.Upper[j]
	}
}

// round looks for a feasible point near the relaxation x: the snapped x
// itself if it is integral (integral is the caller's mostFractional verdict
// on x under lp.IntTol), then floor-all and round-all of the integer variables,
// each clamped to the integers inside the variable's bounds (a model with an
// integer box holding none has no such point). With a solver
// the continuous remainder is re-solved with the integers fixed, and that LP
// work is charged to st; without one (pure-integer model) the candidate is
// complete — every variable written, nothing copied — and only the rows are
// checked, the floor point after the class-wise repair (see repair), which
// keeps every row the floor point kept. The returned point lives in the
// heuristic's scratch until the next call — most nodes round to some
// feasible point, few to a better one, so the caller copies on keeping.
func (h *heurCtx) round(p *Problem, x []float64, integral bool, st *Stats) ([]float64, bool) {
	if integral {
		if cand := snap(h.lower, p, x); p.LP.Feasible(cand) {
			return cand, true
		}
	}
	if h.noInteger {
		return nil, false
	}
	// The loop reads and writes through locals sliced to one length, so it
	// carries no bounds checks and reloads nothing through p or h.
	ints, integralBounds := p.Integer, h.integralBounds
	lower, upper := p.LP.Lower[:len(ints)], p.LP.Upper[:len(ints)]
	x, fixed, fixedUp := x[:len(ints)], h.lower[:len(ints)], h.upper
	for _, floor := range [2]bool{true, false} {
		if h.solver != nil {
			copy(h.lower, lower)
			copy(h.upper, upper)
		}
		for j, isInt := range ints {
			if !isInt {
				continue
			}
			lo, hi := lower[j], upper[j]
			if !integralBounds {
				lo, hi = math.Ceil(lo), math.Floor(hi)
			}
			v := x[j] + lp.IntTol
			if floor {
				v = math.Floor(v)
			} else {
				v = math.Round(v)
			}
			v = min(max(v, lo), hi)
			fixed[j] = v
			if fixedUp != nil {
				fixedUp[j] = v
			}
		}
		cand := h.lower // integral by construction when every variable is
		if h.solver != nil {
			sol := h.solver.SolveCold(h.lower, h.upper)
			st.Relaxations++
			st.Pivots += sol.Iters
			if sol.Status != lp.Optimal {
				continue
			}
			cand = snap(h.upper, p, sol.X)
		}
		if floor {
			h.rep.run(p, cand)
		}
		if p.LP.Feasible(cand) {
			return cand, true
		}
	}
	return nil, false
}

// BruteForceMaxAssignments caps the assignment space BruteForce is willing to
// enumerate. Each assignment costs one LP solve, so anything near the limit
// already takes seconds; beyond it BruteForce refuses with a *TooLargeError
// instead of silently grinding (or overflowing) on instances it was never
// meant for.
const BruteForceMaxAssignments = 1 << 20

// TooLargeError reports that BruteForce refused an instance because its
// integer assignment space exceeds BruteForceMaxAssignments. Callers that use
// BruteForce as a differential oracle size-gate on it with errors.As.
type TooLargeError struct {
	// Assignments is the size of the integer assignment space (the product
	// of the integer variables' bound ranges). It is a float64 because the
	// product can overflow int64 long before the limit check matters.
	Assignments float64
}

func (e *TooLargeError) Error() string {
	return fmt.Sprintf("milp: brute force would enumerate %g integer assignments (limit %d)", e.Assignments, BruteForceMaxAssignments)
}

// BruteForce exhaustively enumerates all integer assignments (continuous
// variables are optimized by LP for each assignment) and returns the optimum.
// It is exponential and exists only to validate Solve in tests on tiny
// models; instances whose assignment space exceeds BruteForceMaxAssignments
// are rejected with a *TooLargeError.
func BruteForce(p *Problem) (*Solution, error) {
	var ints []int
	for j, isInt := range p.Integer {
		if isInt {
			ints = append(ints, j)
		}
	}
	sort.Ints(ints)
	assignments := 1.0
	for _, j := range ints {
		if math.IsInf(p.LP.Upper[j], 1) {
			return nil, fmt.Errorf("milp: integer variable %d (%s) has infinite upper bound", j, name(p.LP, j))
		}
		lo := math.Ceil(p.LP.Lower[j] - lp.ZeroTol)
		hi := math.Floor(p.LP.Upper[j] + lp.ZeroTol)
		if span := hi - lo + 1; span > 1 {
			assignments *= span
		}
		if assignments > BruteForceMaxAssignments {
			return nil, &TooLargeError{Assignments: assignments}
		}
	}
	best := &Solution{Status: Infeasible, Objective: math.Inf(-1)}
	work := p.LP.Clone()
	var rec func(k int) error
	rec = func(k int) error {
		if k == len(ints) {
			sol, err := lp.Solve(work)
			if err != nil {
				return err
			}
			if sol.Status == lp.Optimal && sol.Objective > best.Objective {
				best = &Solution{Status: Optimal, X: append([]float64(nil), sol.X...), Objective: sol.Objective, HasX: true}
			}
			return nil
		}
		j := ints[k]
		lo := int(math.Ceil(p.LP.Lower[j] - lp.ZeroTol))
		hi := int(math.Floor(p.LP.Upper[j] + lp.ZeroTol))
		for v := lo; v <= hi; v++ {
			work.Lower[j], work.Upper[j] = float64(v), float64(v)
			if err := rec(k + 1); err != nil {
				return err
			}
		}
		work.Lower[j], work.Upper[j] = p.LP.Lower[j], p.LP.Upper[j]
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return best, nil
}
