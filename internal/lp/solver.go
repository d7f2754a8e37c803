package lp

// Solver re-solves one linear program under varying variable bounds, the
// access pattern of LP-relaxation branch and bound: the constraint matrix
// and objective never change between nodes, only the bounds of the
// branching variables move. Two things make it much cheaper than calling
// Solve per node:
//
//   - Warm starts. After an optimal solve, a bound change leaves the basis
//     dual feasible, so Solve restores primal feasibility with a short
//     bounded-variable dual-simplex run instead of re-running phase 1 from
//     scratch. Typical branch-and-bound children need a handful of dual
//     pivots where a cold solve needs dozens of phase-1+phase-2 pivots; and
//     when the dual run proves the child infeasible outright (see
//     SolverStats.WarmInfeasible) even the cold confirmation solve is
//     skipped. The basis need not be the previous solve's: Basis snapshots
//     an optimal basis and SolveFrom continues from a snapshot on any Solver
//     of the problem, which is how a best-first search re-solves each child
//     from its parent however long ago, and on whichever worker, the parent
//     was solved.
//   - Shared factorization state. All solves run over one CSC column store
//     and one product-form basis factorization with periodic
//     refactorization, so neither a warm nor a cold solve re-allocates or
//     re-scans the matrix.
//
// A Solver's working state — its revised-simplex arrays, and the column
// store it shares with the other solvers of its NewSolvers call — comes from
// the package's pools, so a NewSolvers after a Release allocates only the
// Solver handles. Release gives the state back; a Solver is dead afterwards,
// and each of its methods panics. Branch and bound releases its solvers when
// the search ends; a caller that does not is left with garbage-collected
// state, as every caller was before the pools.
//
// A Solver is not safe for concurrent use; branch and bound gives each wave
// worker its own, all built by one NewSolvers call over one read-only column
// store. SolveCold is arithmetic-identical to Solve(p) with the same bounds
// (only the allocations differ).
type Solver struct {
	rv *revised // nil once released

	hasBasis bool   // rv sits on a dual-feasible basis the next Solve can continue from
	last     Status // the last solve's verdict; numericFailure before any, and for conflicting bounds

	// Lean skips the duals, which branch and bound never reads, and returns
	// the solver's own *Solution, its X a buffer the solver owns too: both
	// belong to the solver and are overwritten by its next solve, and handed
	// to another solve by Release, so a caller that keeps a verdict or a
	// point must copy it. A warm lean solve allocates nothing.
	Lean bool
	// NoWarm forces every Solve and SolveFrom through the cold path (branch
	// and bound sets it to measure warm-start savings).
	NoWarm bool

	// Stats counts the solves by path and the simplex work spent.
	Stats SolverStats
}

// SolverStats instruments a Solver's lifetime.
type SolverStats struct {
	Warm   int // solves answered from a warm-started basis
	Cold   int // solves that (re)built the starting basis from scratch
	Pivots int // simplex iterations (primal and dual) across all solves
	// CrashStarts counts the cold solves that started from a crash basis
	// (see revised.crash) instead of the all-slack one.
	CrashStarts int
	// FallbackCold counts warm attempts whose basis restoration failed, so
	// the solve fell through to the cold path. Those solves are counted in
	// Cold as well; FallbackCold only classifies how they got there. The
	// solver flight recorder surfaces it as a warm-start health signal — a
	// rising fallback rate means the warm bases are not surviving the
	// branching pattern.
	FallbackCold int
	// WarmInfeasible counts warm re-solves whose dual simplex certified the
	// subproblem infeasible directly (an unrepairable violated row), so no
	// cold phase-1 confirmation was needed. These solves are counted in
	// Warm as well; the split lets flight/schedd telemetry distinguish a
	// dual-certified prune from a cold-certified one.
	WarmInfeasible int
	// PrimalPivots and DualPivots split the basis-changing pivots by
	// algorithm (bound flips count as iterations in Pivots but change no
	// basis). A healthy branch-and-bound run is dual-dominated: children
	// re-solve with a few dual pivots each.
	PrimalPivots int
	DualPivots   int
	// Refactorizations counts basis refactorizations (scheduled by eta-file
	// growth or forced by numerical drift), and EtaPeak is the largest
	// eta-file length (total stored entries) observed — together they
	// describe how hard the product-form update machinery is working.
	Refactorizations int
	EtaPeak          int
	// PricedColumns counts the columns the primal simplex priced (one add per
	// pricing pass: the working set's size, or every column on a full pass)
	// and FullPricingPasses the passes that took in every column — refills of
	// the working set, optimality proofs, Bland steps, and each pass of a
	// model narrow enough to be priced whole. A full pass counts every
	// column, although it visits only the movable ones (basic and fixed
	// columns cannot enter), so the count reads as it did before the pass
	// skipped them. PricedColumns per pivot is what pricing costs; it sliding
	// back toward the column count means the working set stopped doing its
	// job.
	PricedColumns     int
	FullPricingPasses int
}

// NewSolver validates the problem once and returns a reusable solver for it.
// The problem must not be mutated afterwards; pass per-solve bounds to Solve
// instead.
//
// The solver works on p with every row divided by a power of two near its
// RHS (near its largest coefficient when the RHS is zero; see rowScale), so
// a row in bytes and a row in seconds meet the same absolute tolerances at
// the same O(1) scale. Nothing a caller sees carries the scaling: X,
// Objective, the reduced costs and Basis do not depend on it, and Duals and
// FarkasRay are divided back into each row's own units, exactly.
func NewSolver(p *Problem) (*Solver, error) {
	s, err := NewSolvers(p, 1)
	if err != nil {
		return nil, err
	}
	return s[0], nil
}

// NewSolvers is NewSolver for k solvers of one problem at once: one
// validation and one transpose of the scaled matrix into the column store
// they all read. Each solver keeps its own working state, so they may run
// concurrently. The store and the states come from the package's pools; hand
// the solvers to Release once done to give them back.
func NewSolvers(p *Problem, k int) ([]*Solver, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cs := buildColStore(p)
	cs.solvers = k
	out := make([]*Solver, k)
	for i := range out {
		s := &Solver{rv: newRevised(p, cs), last: numericFailure}
		s.rv.stats = &s.Stats
		out[i] = s
	}
	return out, nil
}

// Release gives the working state of solvers — every Solver one NewSolvers
// call returned — back to the package's pools, for the next NewSolvers or
// Solve to reuse. Nothing that belongs to the solvers may be used afterwards:
// a call to any of their methods panics, and a lean Solution one of them
// returned, X included, will be overwritten by another solve.
func Release(solvers []*Solver) {
	if len(solvers) == 0 {
		return
	}
	cs := solvers[0].state().cs
	for _, s := range solvers {
		if len(solvers) != cs.solvers || s.state().cs != cs {
			panic("lp: Release takes every Solver one NewSolvers call returned")
		}
		statePool.Put(s.rv)
		s.rv = nil
	}
	storePool.Put(cs)
}

// Solve solves the problem under the given bounds, warm-starting from the
// previous solve's basis when possible, and reports whether the warm path
// produced the answer. Warm results are trusted at optimality and at
// dual-certified infeasibility; any other restoration outcome falls back to
// a cold solve, so every verdict carries either a phase-1 or a Farkas-style
// certificate. Conflicting bounds (lower above upper) short-circuit to an
// Infeasible solution.
func (s *Solver) Solve(lower, upper []float64) (*Solution, bool) {
	return s.SolveFrom(nil, lower, upper)
}

// Basis returns a snapshot of the optimal basis the last solve ended on, or
// nil when there is none to continue from (nothing solved yet, or the last
// solve was not optimal).
func (s *Solver) Basis() *Basis {
	rv := s.state()
	if s.last != Optimal {
		return nil
	}
	return rv.snapshot()
}

// ReducedCosts writes, for the optimal basis the last solve ended on, the
// reduced cost d[j] = c_j - a_j·y of every original variable (exactly zero
// on a basic one) and whether a nonbasic variable rests at its upper bound;
// both slices must hold one entry per variable. The row scaling cancels out
// of d, so it is in the problem's own units, unrounded, in Lean mode too. It
// reports false, writing nothing, when there is no optimal basis to price
// (nothing solved yet, or the last solve was not optimal).
func (s *Solver) ReducedCosts(d []float64, atUpper []bool) bool {
	rv := s.state()
	if s.last != Optimal {
		return false
	}
	y := rv.multipliers(rv.c)
	for j := range d {
		d[j], atUpper[j] = 0, false
		if !rv.inBasis[j] {
			d[j], atUpper[j] = rv.c[j]-rv.cs.dot(j, y), rv.atUpper[j]
		}
	}
	return true
}

// FarkasRay writes into y, per row, multipliers proving the last solve
// Infeasible: y·(Ax ± s) > y·b for every x within its bounds and slacks s >= 0
// (row r reads a_r·x + s under ≤, a_r·x − s under ≥). They are phase 1's, or ±
// the basis-inverse row a warm dual simplex could not repair, stated for p's
// rows as given (the solver's scaled ray divided by each row's scale). It
// reports false after any other verdict, conflicting bounds (their own proof)
// included.
func (s *Solver) FarkasRay(y []float64) bool {
	rv := s.state()
	switch {
	case s.last != Infeasible:
		return false
	case rv.farkasRow < 0:
		copy(y, rv.multipliers(rv.cPh1))
	default:
		r := rv.farkasRow
		clear(y)
		if y[r] = 1; rv.xB[r] > rv.up[rv.basis[r]] {
			y[r] = -1
		}
		rv.ef.btran(y)
	}
	// A row whose slack is basic has multiplier exactly zero — the slack
	// prices to its objective, 0 — unless the slack is the violated row's
	// own basic column. Roundoff leaves ±1e-15 there instead, and on a slack
	// free to grow without bound the wrong sign of that voids the proof.
	for i, f := range rv.cs.scale {
		if sc := rv.cs.slackCol[i]; sc >= 0 && rv.inBasis[sc] && (rv.farkasRow < 0 || rv.basis[rv.farkasRow] != sc) {
			y[i] = 0
		}
		y[i] /= f
	}
	return true
}

// SolveFrom is Solve warm-started from b — a snapshot taken by any Solver of
// the same problem — instead of from this solver's previous solve: the basis
// is installed and refactorized, then restored exactly as Solve restores its
// own (dual simplex, primal clean-up, Farkas-certified infeasibility). A
// snapshot that does not fit the problem, or whose basis matrix is singular,
// counts as a failed restoration and falls back cold. A nil b means the
// solver's own basis, i.e. Solve.
func (s *Solver) SolveFrom(b *Basis, lower, upper []float64) (*Solution, bool) {
	for j := range lower {
		if lower[j] > upper[j] {
			s.last = numericFailure
			return s.state().answer(Solution{Status: Infeasible}), false
		}
	}
	if !s.NoWarm && (b != nil || s.hasBasis) {
		rv := s.state()
		if b == nil || rv.install(b) {
			if sol, ok := rv.resolve(lower, upper); ok {
				s.hasBasis = true
				s.last = sol.Status
				s.Stats.Warm++
				s.Stats.Pivots += sol.Iters
				if sol.Status == Infeasible {
					s.Stats.WarmInfeasible++
				}
				return sol, true
			}
		}
		// The failed restoration left the basis mid-pivot; the cold solve
		// below rebuilds from scratch.
		s.hasBasis = false
		s.Stats.FallbackCold++
	}
	return s.SolveCold(lower, upper), false
}

// state returns the working state in the Lean mode currently selected. Every
// method goes through it, so a released Solver panics on its next call instead
// of computing on state another solve may hold.
func (s *Solver) state() *revised {
	if s.rv == nil {
		panic("lp: Solver used after Release")
	}
	s.rv.lean = s.Lean
	return s.rv
}

// SolveCold restarts from scratch for the given bounds — the crash basis
// where the problem declares its shape, the all-slack basis otherwise —
// reusing the column store and factorization buffers, and solves with the
// two-phase primal simplex: the same arithmetic as Solve(p) on a problem
// carrying these bounds.
func (s *Solver) SolveCold(lower, upper []float64) *Solution {
	sol := s.state().solveCold(lower, upper)
	s.last = sol.Status
	s.hasBasis = s.last == Optimal
	s.Stats.Cold++
	s.Stats.Pivots += sol.Iters
	return sol
}
