package lp

import "math"

const (
	// refactorEvery bounds how many eta updates may stack on one
	// factorization before the basis is refactorized from scratch: PFI
	// updates accumulate both fill (FTRAN/BTRAN cost) and roundoff, and a
	// periodic rebuild resets both.
	refactorEvery = 64
	// singularTol is the minimum pivot magnitude refactorization accepts
	// before declaring the basis numerically singular.
	singularTol = 1e-10
	// etaPivTol is the minimum pivot magnitude accepted for an eta update on
	// a stale factorization; smaller pivots trigger an early refactorization
	// so the update is re-derived from fresh numbers.
	etaPivTol = 1e-8
	// dvxReset caps the Devex reference weights; when any weight outgrows it
	// the reference framework is reset to the current basis.
	dvxReset = 1e7
)

// numericFailure is an internal status for "the factorization went bad":
// solveCold retries once from a fresh basis and the warm path falls back to
// a cold solve. It never escapes the package.
const numericFailure Status = -1

// revised is the sparse revised-simplex working state: a bounded-variable
// two-phase primal simplex (with a dual-simplex warm re-solve in dual.go)
// over the CSC column store, with the basis inverse kept in product form
// (etaFile) instead of a dense tableau. Columns are laid out as
//
//	[0, nOrig)      structural variables
//	[nOrig, n)      slack/surplus singletons
//	[n, n+m)        phase-1 artificials, one per row, implicit ±1 singletons
//
// Unlike the dense tableau there is no bound shifting and no row sign
// normalization: variables keep their original [lo, up] ranges and each
// artificial column carries the sign of its row's initial residual, so a
// warm re-solve only moves lo/up and recomputes the basic values with one
// FTRAN.
type revised struct {
	p  *Problem
	cs *colStore

	m, n, width int // rows; structural+slack columns; +m artificial columns

	lo, up  []float64 // current bounds per column
	c       []float64 // phase-2 objective per column
	b       []float64 // RHS per row
	artSign []float64 // per row: sign of the artificial column (±1)
	artUsed []bool    // per row: artificial participates in phase 1

	basis   []int  // basic column per row
	inBasis []bool // column -> basic?
	atUpper []bool // nonbasic column rests at its upper bound
	xB      []float64

	ef       etaFile
	lastFact int // eta count right after the last refactorization

	dvx   []float64 // Devex reference weights per column
	iters int
	lean  bool // skip duals/reduced costs/activity in extracted solutions

	// Per-solve scratch (length m unless noted).
	wrk   []float64
	col   []float64
	rho   []float64
	y     []float64
	cPh1  []float64 // length width; phase-1 objective
	xLean []float64 // length nOrig; the point lean solutions return
	// Refactorization scratch, allocated on first use.
	factOrder []int
	factBasis []int
	factCount []int // length m+2; counting-sort buckets by column nonzeros
	rowUsed   []bool

	stats *SolverStats // counter sink; never nil (lp.Solve uses a throwaway)
}

// newRevised builds the solver state for a validated problem. Bounds and
// basis are installed by reset before each cold solve.
func newRevised(p *Problem) *revised {
	cs := buildColStore(p)
	m := cs.m
	width := cs.n + m
	rv := &revised{
		p:       p,
		cs:      cs,
		m:       m,
		n:       cs.n,
		width:   width,
		lo:      make([]float64, width),
		up:      make([]float64, width),
		c:       make([]float64, width),
		b:       make([]float64, m),
		artSign: make([]float64, m),
		artUsed: make([]bool, m),
		basis:   make([]int, m),
		inBasis: make([]bool, width),
		atUpper: make([]bool, width),
		xB:      make([]float64, m),
		dvx:     make([]float64, width),
		wrk:     make([]float64, m),
		col:     make([]float64, m),
		rho:     make([]float64, m),
		y:       make([]float64, m),
		cPh1:    make([]float64, width),
		stats:   &SolverStats{},
	}
	for i, cons := range p.Constraints {
		rv.b[i] = cons.RHS
	}
	for j := 0; j < cs.nOrig; j++ {
		rv.c[j] = p.Objective[j]
	}
	// Slack/surplus columns are [0, +Inf) for good; only structural and
	// artificial bounds move between solves.
	for j := cs.nOrig; j < cs.n; j++ {
		rv.up[j] = math.Inf(1)
	}
	return rv
}

// colDot returns a_j · y, where j may be any column including the implicit
// artificial singletons.
func (rv *revised) colDot(j int, y []float64) float64 {
	if j < rv.n {
		return rv.cs.dot(j, y)
	}
	return rv.artSign[j-rv.n] * y[j-rv.n]
}

// colScatterAdd adds scale * a_j into out.
func (rv *revised) colScatterAdd(j int, scale float64, out []float64) {
	if j < rv.n {
		rv.cs.scatterAdd(j, scale, out)
		return
	}
	out[j-rv.n] += rv.artSign[j-rv.n] * scale
}

// colNNZ returns the stored nonzero count of column j.
func (rv *revised) colNNZ(j int) int {
	if j < rv.n {
		return rv.cs.nnz(j)
	}
	return 1
}

// reset installs a cold starting state for the given original-variable
// bounds: structural variables rest at their lower bound, each row gets its
// slack/surplus as the basic variable when that is feasible and an artificial
// (signed to match the residual) otherwise, and the eta file restarts empty.
// Calling reset on a previously used state is arithmetic-identical to a
// fresh newRevised + reset, which is what keeps Solver.SolveCold byte-equal
// to lp.Solve.
func (rv *revised) reset(lower, upper []float64) {
	nOrig := rv.cs.nOrig
	for j := 0; j < nOrig; j++ {
		rv.lo[j], rv.up[j] = lower[j], upper[j]
	}
	for j := rv.n; j < rv.width; j++ {
		rv.lo[j], rv.up[j] = 0, 0 // opened per-row below when used
	}
	for j := 0; j < rv.width; j++ {
		rv.inBasis[j] = false
		rv.atUpper[j] = false
	}
	rv.iters = 0

	// Row residuals at the all-at-lower resting point.
	res := rv.wrk
	copy(res, rv.b)
	for j := 0; j < nOrig; j++ {
		if lower[j] != 0 {
			rv.cs.scatterAdd(j, -lower[j], res)
		}
	}
	for i := 0; i < rv.m; i++ {
		rv.artUsed[i] = false
		rv.artSign[i] = 1
		slack := rv.cs.slackCol[i]
		switch rv.cs.sense[i] {
		case LE:
			if res[i] >= 0 {
				rv.basis[i] = slack
				rv.xB[i] = res[i]
				continue
			}
		case GE:
			if res[i] <= 0 {
				rv.basis[i] = slack
				rv.xB[i] = -res[i]
				continue
			}
		}
		// Slack infeasible (or EQ row): seat an artificial whose sign makes
		// it start at |residual| >= 0, replacing the dense tableau's
		// row-sign normalization.
		if res[i] < 0 {
			rv.artSign[i] = -1
		}
		rv.basis[i] = rv.n + i
		rv.xB[i] = res[i] * rv.artSign[i]
		rv.artUsed[i] = true
		rv.up[rv.n+i] = math.Inf(1)
	}
	for _, col := range rv.basis {
		rv.inBasis[col] = true
	}
	// The initial basis is diagonal (±1 singletons): its factorization is a
	// sign eta per negative diagonal and nothing else, built directly
	// without a counted refactorization.
	rv.ef.reset()
	for i := 0; i < rv.m; i++ {
		col := rv.basis[i]
		diag := 1.0
		if col >= rv.n {
			diag = rv.artSign[i]
		} else if rv.cs.sense[i] == GE {
			diag = -1 // surplus column
		}
		if diag != 1 {
			rv.ef.pushSingleton(i, 1/diag)
		}
	}
	rv.lastFact = rv.ef.count()
	rv.noteEta()
}

// refactor rebuilds the eta file from the current basis columns, processed
// sparsest-first (an approximate triangularization that keeps fill low for
// the near-diagonal bases scheduling LPs produce). Each column FTRANs
// through the etas built so far and pivots on the still-unassigned row with
// the largest magnitude (partial pivoting); the basis array is then
// relabeled to the chosen row assignment — the basis is a set of columns,
// and the row pairing is bookkeeping the caller refreshes by recomputing
// the basic values. A best pivot below singularTol means the basis is
// numerically singular and the caller must recover (retry cold, or fall
// back from a warm solve).
//
// Singleton columns (slacks, artificials, one-row structurals) sort first,
// so every eta before them is itself a fill-free singleton on another row:
// the FTRAN would return the column unchanged and the pivot scan would find
// its only row. They are seated directly.
func (rv *revised) refactor() bool {
	rv.stats.Refactorizations++
	rv.ef.reset()
	if rv.factOrder == nil {
		rv.factOrder = make([]int, rv.m)
		rv.factBasis = make([]int, rv.m)
		rv.factCount = make([]int, rv.m+2)
		rv.rowUsed = make([]bool, rv.m)
	}
	// Stable counting sort of the basis positions by column nonzero count
	// (at most m per column).
	count := rv.factCount
	for k := range count {
		count[k] = 0
	}
	for _, j := range rv.basis {
		count[rv.colNNZ(j)+1]++
	}
	for k := 1; k < len(count); k++ {
		count[k] += count[k-1]
	}
	order := rv.factOrder
	for pos, j := range rv.basis {
		k := rv.colNNZ(j)
		order[count[k]] = pos
		count[k]++
	}
	for i := range rv.rowUsed {
		rv.rowUsed[i] = false
	}
	w := rv.col
	for _, pos := range order {
		j := rv.basis[pos]
		if rv.colNNZ(j) == 1 {
			r, v := rv.singleton(j)
			if rv.rowUsed[r] || math.Abs(v) <= singularTol {
				return false
			}
			if v != 1 {
				rv.ef.pushSingleton(r, 1/v)
			}
			rv.rowUsed[r] = true
			rv.factBasis[r] = j
			continue
		}
		for i := range w {
			w[i] = 0
		}
		rv.colScatterAdd(j, 1, w)
		rv.ef.ftran(w)
		r := -1
		best := singularTol
		for i := 0; i < rv.m; i++ {
			if rv.rowUsed[i] {
				continue
			}
			if a := math.Abs(w[i]); a > best {
				best = a
				r = i
			}
		}
		if r < 0 {
			return false
		}
		rv.ef.push(r, w)
		rv.rowUsed[r] = true
		rv.factBasis[r] = j
	}
	copy(rv.basis, rv.factBasis)
	rv.lastFact = rv.ef.count()
	rv.noteEta()
	return true
}

// singleton returns the row and value of the only entry of column j, which
// must have exactly one (colNNZ(j) == 1).
func (rv *revised) singleton(j int) (row int, val float64) {
	if j < rv.n {
		k := rv.cs.ptr[j]
		return rv.cs.idx[k], rv.cs.val[k]
	}
	return j - rv.n, rv.artSign[j-rv.n]
}

// refactorAndRecompute refactorizes and rebuilds xB from the new
// factorization.
func (rv *revised) refactorAndRecompute() bool {
	if !rv.refactor() {
		return false
	}
	rv.computeXB()
	return true
}

// computeXB recomputes the basic values from scratch: xB = B^-1 (b - N x_N)
// with every nonbasic column at its resting bound. One FTRAN, used after
// refactorization and at the start of each warm re-solve.
func (rv *revised) computeXB() {
	res := rv.wrk
	copy(res, rv.b)
	for j := 0; j < rv.n; j++ {
		if rv.inBasis[j] {
			continue
		}
		rest := rv.lo[j]
		if rv.atUpper[j] {
			rest = rv.up[j]
		}
		if rest != 0 {
			rv.cs.scatterAdd(j, -rest, res)
		}
	}
	// Artificial columns always rest at zero.
	rv.ef.ftran(res)
	copy(rv.xB, res)
}

// noteEta records the eta-file length in the peak statistic.
func (rv *revised) noteEta() {
	if n := rv.ef.entries(); n > rv.stats.EtaPeak {
		rv.stats.EtaPeak = n
	}
}

// solveCold runs the two-phase primal simplex from the state reset
// installed. On a numeric failure (singular refactorization) it rebuilds the
// initial basis and retries once before giving up with IterationLimit.
func (rv *revised) solveCold(lower, upper []float64) *Solution {
	rv.reset(lower, upper)
	sol := rv.runCold()
	if sol.Status == numericFailure {
		rv.reset(lower, upper)
		sol = rv.runCold()
		if sol.Status == numericFailure {
			sol = &Solution{Status: IterationLimit, Iters: rv.iters}
		}
	}
	return sol
}

// runCold is one attempt at the two-phase solve.
func (rv *revised) runCold() *Solution {
	anyArt := false
	for i := 0; i < rv.m; i++ {
		if rv.artUsed[i] {
			anyArt = true
			break
		}
	}
	if anyArt {
		ph1 := rv.cPh1
		for j := range ph1 {
			ph1[j] = 0
		}
		for i := 0; i < rv.m; i++ {
			if rv.artUsed[i] {
				ph1[rv.n+i] = -1
			}
		}
		status, obj := rv.simplex(ph1)
		if status == numericFailure {
			return &Solution{Status: numericFailure}
		}
		if status == IterationLimit {
			return &Solution{Status: IterationLimit, Iters: rv.iters}
		}
		if obj < -feasTol {
			return &Solution{Status: Infeasible, Iters: rv.iters}
		}
		if !rv.driveOutArtificials() {
			return &Solution{Status: numericFailure}
		}
		// Forbid artificials from re-entering or growing: clamp to zero. A
		// still-basic artificial (value 0) keeps acting as its row's
		// identity column, but the zero upper bound makes the phase-2 ratio
		// test block any move that would lift it — the same clamp the dense
		// tableau applies, without which phase 2 could silently relax an
		// equality row.
		for i := 0; i < rv.m; i++ {
			if rv.artUsed[i] {
				rv.up[rv.n+i] = 0
			}
		}
	}
	status, obj := rv.simplex(rv.c)
	if status == numericFailure {
		return &Solution{Status: numericFailure}
	}
	if status != Optimal {
		return &Solution{Status: status, Iters: rv.iters}
	}
	return rv.extract(obj)
}

// driveOutArtificials swaps basic artificials (at value zero after phase 1)
// for nonbasic structural/slack columns resting at their lower bound where a
// nonzero pivot exists, shrinking the set of clamped identity columns phase 2
// must carry. The swap is degenerate — the point does not move.
func (rv *revised) driveOutArtificials() bool {
	for i := 0; i < rv.m; i++ {
		if rv.basis[i] < rv.n {
			continue
		}
		rho := rv.rho
		for k := range rho {
			rho[k] = 0
		}
		rho[i] = 1
		rv.ef.btran(rho)
		for j := 0; j < rv.n; j++ {
			if rv.inBasis[j] || rv.atUpper[j] {
				continue
			}
			if math.Abs(rv.cs.dot(j, rho)) <= eps {
				continue
			}
			w := rv.col
			for k := range w {
				w[k] = 0
			}
			rv.cs.scatterAdd(j, 1, w)
			rv.ef.ftran(w)
			if math.Abs(w[i]) <= eps {
				continue // disagrees with rho under roundoff; try another column
			}
			rv.ef.push(i, w)
			rv.noteEta()
			old := rv.basis[i]
			rv.basis[i] = j
			rv.inBasis[j] = true
			rv.inBasis[old] = false
			rv.atUpper[old] = false
			// The swap must not move the point: the entering column keeps
			// the resting value it held as a nonbasic variable (which is not
			// zero here, unlike the shift-normalized dense tableau).
			rv.xB[i] = rv.lo[j]
			break
		}
	}
	return true
}

// objValue evaluates obj at the current point: basic values plus nonbasic
// columns resting at nonzero bounds.
func (rv *revised) objValue(obj []float64) float64 {
	v := 0.0
	for i := 0; i < rv.m; i++ {
		v += obj[rv.basis[i]] * rv.xB[i]
	}
	for j := 0; j < rv.width; j++ {
		if rv.inBasis[j] || obj[j] == 0 {
			continue
		}
		if rv.atUpper[j] {
			v += obj[j] * rv.up[j]
		} else if rv.lo[j] != 0 {
			v += obj[j] * rv.lo[j]
		}
	}
	return v
}

// simplex maximizes obj from the current basis with the bounded-variable
// primal rules: a nonbasic-at-lower column enters on positive reduced cost,
// a nonbasic-at-upper column on negative; the ratio test limits the move by
// basic variables hitting either bound or the entering variable flipping to
// its opposite bound. Pricing is Devex (steepest-edge approximation over a
// reference framework) with a Bland's-rule fallback after blandTrip
// iterations to guarantee termination under degeneracy. Each iteration costs
// one BTRAN for the multipliers, one sparse pricing pass, one FTRAN for the
// entering column, and (on a pivot) one BTRAN'd pivot row for the Devex
// update — O(nnz + eta fill) instead of the dense tableau's O(m·n).
func (rv *revised) simplex(obj []float64) (Status, float64) {
	maxIters := 20000 + 200*(rv.m+rv.width)
	rv.devexInit()
	for iter := 0; ; iter++ {
		if rv.iters++; rv.iters > maxIters {
			return IterationLimit, 0
		}
		if rv.ef.count()-rv.lastFact > refactorEvery {
			if !rv.refactorAndRecompute() {
				return numericFailure, 0
			}
		}
		// Simplex multipliers y = c_B B^-1.
		y := rv.y
		for i := 0; i < rv.m; i++ {
			y[i] = obj[rv.basis[i]]
		}
		rv.ef.btran(y)

		useBland := iter > blandTrip
		enter := -1
		bestScore := 0.0
		for j := 0; j < rv.width; j++ {
			if rv.inBasis[j] {
				continue
			}
			if !(rv.up[j]-rv.lo[j] > eps) {
				continue // fixed (includes clamped artificials): cannot move
			}
			rc := obj[j] - rv.colDot(j, y)
			// Improving directions: increase from lower (rc > 0) or decrease
			// from upper (rc < 0).
			if !rv.atUpper[j] && rc > eps {
				// eligible
			} else if rv.atUpper[j] && rc < -eps {
				// eligible
			} else {
				continue
			}
			if useBland {
				enter = j
				break
			}
			if score := rc * rc / rv.dvx[j]; score > bestScore {
				bestScore = score
				enter = j
			}
		}
		if enter < 0 {
			return Optimal, rv.objValue(obj)
		}

		// FTRAN the entering column.
		w := rv.col
		for i := range w {
			w[i] = 0
		}
		rv.colScatterAdd(enter, 1, w)
		rv.ef.ftran(w)

		// Direction: +1 when increasing from lower, -1 when decreasing from
		// upper. Basic variable i changes by -dir*w_i per unit.
		dir := 1.0
		if rv.atUpper[enter] {
			dir = -1
		}
		limit := rv.up[enter] - rv.lo[enter] // bound-flip distance (may be +Inf)
		leave := -1
		leaveAtUpper := false
		for i := 0; i < rv.m; i++ {
			d := dir * w[i]
			var ratio float64
			var hitsUpper bool
			switch {
			case d > eps: // basic value decreases toward its lower bound
				ratio = (rv.xB[i] - rv.lo[rv.basis[i]]) / d
			case d < -eps: // basic value increases toward its upper bound
				ub := rv.up[rv.basis[i]]
				if math.IsInf(ub, 1) {
					continue
				}
				ratio = (ub - rv.xB[i]) / (-d)
				hitsUpper = true
			default:
				continue
			}
			if ratio < limit-eps || (ratio < limit+eps && leave >= 0 && rv.basis[i] < rv.basis[leave]) {
				limit = ratio
				leave = i
				leaveAtUpper = hitsUpper
			}
		}
		if math.IsInf(limit, 1) {
			return Unbounded, 0
		}
		if limit < 0 {
			limit = 0
		}

		if leave < 0 {
			// Bound flip: the entering variable travels to its opposite
			// bound without any basic variable blocking.
			for i := 0; i < rv.m; i++ {
				if w[i] == 0 {
					continue
				}
				rv.xB[i] -= dir * w[i] * limit
				if lb := rv.lo[rv.basis[i]]; rv.xB[i] < lb && rv.xB[i] > lb-feasTol {
					rv.xB[i] = lb
				}
			}
			rv.atUpper[enter] = !rv.atUpper[enter]
			continue
		}

		piv := w[leave]
		if math.Abs(piv) < etaPivTol && rv.ef.count() > rv.lastFact {
			// Numerically risky update on a stale factorization: rebuild and
			// re-derive this iteration from fresh numbers.
			if !rv.refactorAndRecompute() {
				return numericFailure, 0
			}
			continue
		}

		// Devex update needs the pivot row of the outgoing basis inverse.
		rho := rv.rho
		for i := range rho {
			rho[i] = 0
		}
		rho[leave] = 1
		rv.ef.btran(rho)
		rv.devexUpdate(enter, leave, piv, rho)

		// Move the point and swap the basis.
		newVal := rv.lo[enter] + dir*limit
		if rv.atUpper[enter] {
			newVal = rv.up[enter] + dir*limit // dir = -1: up - limit
		}
		for i := 0; i < rv.m; i++ {
			if w[i] == 0 {
				continue
			}
			rv.xB[i] -= dir * w[i] * limit
			if lb := rv.lo[rv.basis[i]]; rv.xB[i] < lb && rv.xB[i] > lb-feasTol {
				rv.xB[i] = lb
			}
		}
		rv.ef.push(leave, w)
		rv.noteEta()
		leavingCol := rv.basis[leave]
		rv.basis[leave] = enter
		rv.inBasis[enter] = true
		rv.atUpper[enter] = false
		rv.inBasis[leavingCol] = false
		rv.atUpper[leavingCol] = leaveAtUpper
		rv.xB[leave] = newVal
		rv.stats.PrimalPivots++
	}
}

// devexInit resets the Devex reference framework to the current basis: every
// weight returns to one, making the first pricing pass plain Dantzig.
func (rv *revised) devexInit() {
	for j := range rv.dvx {
		rv.dvx[j] = 1
	}
}

// devexUpdate maintains the Devex reference weights after a pivot: each
// nonbasic column's weight rises to track its steepest-edge norm estimate
// through the basis change, and the leaving variable gets the entering
// column's transformed weight. Weights that outgrow dvxReset reset the whole
// framework (the estimates have drifted too far from the reference basis to
// stay meaningful).
func (rv *revised) devexUpdate(enter, leave int, piv float64, rho []float64) {
	wq := rv.dvx[enter]
	pivSq := piv * piv
	maxW := 0.0
	for j := 0; j < rv.width; j++ {
		if rv.inBasis[j] || j == enter {
			continue
		}
		if !(rv.up[j]-rv.lo[j] > eps) {
			continue
		}
		arj := rv.colDot(j, rho)
		if arj == 0 {
			continue
		}
		if cand := arj * arj / pivSq * wq; cand > rv.dvx[j] {
			rv.dvx[j] = cand
		}
		if rv.dvx[j] > maxW {
			maxW = rv.dvx[j]
		}
	}
	nw := wq / pivSq
	if nw < 1 {
		nw = 1
	}
	rv.dvx[rv.basis[leave]] = nw
	if maxW > dvxReset || nw > dvxReset {
		rv.devexInit()
	}
}

// extract materializes the current optimal basis into a Solution, snapping
// values near the current bounds onto them. In lean mode the diagnostic
// fields (duals, reduced costs, row activity) are skipped — the
// branch-and-bound hot path never reads them — and the point is written into
// the state's own buffer instead of a fresh vector per solve.
func (rv *revised) extract(obj float64) *Solution {
	nOrig := rv.cs.nOrig
	var x []float64
	if rv.lean {
		if rv.xLean == nil {
			rv.xLean = make([]float64, nOrig)
		}
		x = rv.xLean
	} else {
		x = make([]float64, nOrig)
	}
	for j := 0; j < nOrig; j++ {
		if rv.atUpper[j] {
			x[j] = rv.up[j]
		} else {
			x[j] = rv.lo[j]
		}
	}
	for i, col := range rv.basis {
		if col < nOrig {
			x[col] = rv.xB[i]
		}
	}
	for j := 0; j < nOrig; j++ {
		if math.Abs(x[j]-rv.lo[j]) < feasTol {
			x[j] = rv.lo[j]
		}
		if !math.IsInf(rv.up[j], 1) && math.Abs(x[j]-rv.up[j]) < feasTol {
			x[j] = rv.up[j]
		}
	}
	if rv.lean {
		return &Solution{Status: Optimal, X: x, Objective: obj, Iters: rv.iters}
	}
	// Simplex multipliers for duals and reduced costs: for a maximization
	// the shadow price of a <= or >= row is y_r; equality rows report NaN
	// (their artificial columns are destroyed during phase 1, matching the
	// dense tableau's contract).
	y := rv.y
	for i := 0; i < rv.m; i++ {
		y[i] = rv.c[rv.basis[i]]
	}
	rv.ef.btran(y)
	duals := make([]float64, rv.m)
	for r := 0; r < rv.m; r++ {
		if rv.cs.sense[r] == EQ {
			duals[r] = math.NaN()
			continue
		}
		z := y[r]
		if math.Abs(z) < feasTol {
			z = 0
		}
		duals[r] = z
	}
	rc := make([]float64, nOrig)
	for j := 0; j < nOrig; j++ {
		if rv.inBasis[j] {
			continue
		}
		d := rv.c[j] - rv.cs.dot(j, y)
		if math.Abs(d) < feasTol {
			d = 0
		}
		rc[j] = d
	}
	activity, slacks := rowActivity(rv.p, x)
	return &Solution{
		Status:       Optimal,
		X:            x,
		Objective:    obj,
		Iters:        rv.iters,
		Duals:        duals,
		ReducedCosts: rc,
		RowActivity:  activity,
		Slacks:       slacks,
	}
}

// rowActivity evaluates each constraint at x, returning the activities a_r·x
// and the feasible-side slacks (RHS - activity for <=, activity - RHS for >=,
// |activity - RHS| for equality rows).
func rowActivity(p *Problem, x []float64) (activity, slacks []float64) {
	activity = make([]float64, len(p.Constraints))
	slacks = make([]float64, len(p.Constraints))
	for r, c := range p.Constraints {
		act := 0.0
		for k, j := range c.Idx {
			act += c.Coef[k] * x[j]
		}
		activity[r] = act
		var s float64
		switch c.Sense {
		case LE:
			s = c.RHS - act
		case GE:
			s = act - c.RHS
		case EQ:
			s = math.Abs(act - c.RHS)
		}
		if math.Abs(s) < feasTol {
			s = 0
		}
		slacks[r] = s
	}
	return activity, slacks
}
