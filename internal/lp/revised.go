package lp

import (
	"math"
	"slices"
	"sort"
	"sync"
)

const (
	// refactorEvery bounds how many eta updates may stack on one
	// factorization before the basis is refactorized from scratch: PFI
	// updates accumulate both fill (FTRAN/BTRAN cost) and roundoff, and a
	// periodic rebuild resets both.
	refactorEvery = 64
	// dvxReset caps the Devex reference weights; when any weight outgrows it
	// the reference framework is reset to the current basis.
	dvxReset = 1e7
	// wsMinCap is the smallest pricing working set (see workingSetCap), and
	// wsSparsity how many times over the columns must outnumber the set
	// before selecting one pays (see pricesAll).
	wsMinCap   = 64
	wsSparsity = 4
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
// Variables keep their own [lo, up] ranges and each artificial column carries
// the sign of its row's initial residual, so a warm re-solve only moves lo/up
// and recomputes the basic values with one FTRAN.
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

	// Pricing working set (see simplex): ws lists the candidate columns the
	// primal simplex prices each pivot and dvx holds their Devex reference
	// weights — meaningful for members only. wsCap is the size a refill
	// selects; a state too narrow for selection to pay (see pricesAll) keeps
	// every column a member.
	ws    []int
	dvx   []float64
	wsCap int
	// mov lists the movable columns (see canMove) in ascending order — every
	// column the dual ratio test, refill and Bland's rule could act on. It is
	// rebuilt by applyBounds and before each cold simplex phase, and kept
	// current through every basis change; bound flips leave it alone.
	mov       []int32
	iters     int
	lean      bool // skip the duals in extracted solutions
	farkasRow int  // the dual simplex's unrepairable row; -1 after phase 1 (see FarkasRay)

	// Per-solve scratch (length m unless noted).
	wrk   []float64
	col   []float64
	rho   []float64
	y     []float64
	cPh1  []float64 // length width; phase-1 objective
	alpha []float64 // length width; the dual ratio test's pivot row over mov
	xLean []float64 // length nOrig; the point lean solutions return
	sol   Solution  // lean mode: what every solve returns (see answer)
	// Refactorization scratch.
	factOrder []int
	factBasis []int
	factCount []int  // length m+2; counting-sort buckets by column nonzeros, then a column's pattern
	inPattern []bool // per row: in the pattern; all false between columns

	shape   crashShape // see crash
	noCrash bool       // tests: start every cold solve from the all-slack basis
	onPivot func()     // tests: called after every basis change and rebuild of mov

	stats    *SolverStats // counter sink: the Solver's, or ownStats
	ownStats SolverStats  // the sink of a state no Solver owns (lp.Solve, tests)
}

// statePool holds working states between solves; Release and Solve give
// theirs back.
var statePool = sync.Pool{New: func() any { return new(revised) }}

// newRevised builds the solver state for a validated problem over its column
// store, which the state only reads. Bounds and basis are installed by reset
// before each cold solve. The state comes from statePool: every field is
// rebuilt, and every array is resized over the one the state last held and
// cleared, so the state is the freshly allocated one, bit for bit.
func newRevised(p *Problem, cs *colStore) *revised {
	m := cs.m
	width := cs.n + m
	rv := statePool.Get().(*revised)
	*rv = revised{
		p: p, cs: cs, m: m, n: cs.n, width: width,
		lo: Resize(rv.lo, width), up: Resize(rv.up, width), c: Resize(rv.c, width), b: Resize(rv.b, m),
		artSign: Resize(rv.artSign, m), artUsed: Resize(rv.artUsed, m),
		basis: Resize(rv.basis, m), inBasis: Resize(rv.inBasis, width), atUpper: Resize(rv.atUpper, width), xB: Resize(rv.xB, m),
		ef: rv.ef, ws: rv.ws, dvx: Resize(rv.dvx, width), mov: Resize(rv.mov, width)[:0],
		wrk: Resize(rv.wrk, m), col: Resize(rv.col, m), rho: Resize(rv.rho, m), y: Resize(rv.y, m),
		cPh1: Resize(rv.cPh1, width), alpha: Resize(rv.alpha, width), xLean: Resize(rv.xLean, cs.nOrig),
		factOrder: Resize(rv.factOrder, m), factBasis: Resize(rv.factBasis, m),
		factCount: Resize(rv.factCount, m+2), inPattern: Resize(rv.inPattern, m),
		shape: crashShape{cur: Resize(rv.shape.cur, p.Classes), next: Resize(rv.shape.next, p.Classes), heap: rv.shape.heap[:0]},
	}
	rv.stats = &rv.ownStats
	rv.ef.reset()
	for i, cons := range p.Constraints {
		rv.b[i] = cons.RHS / cs.scale[i]
	}
	for j := 0; j < cs.nOrig; j++ {
		rv.c[j] = p.Objective[j]
	}
	// Slack/surplus columns are [0, +Inf) for good; only structural and
	// artificial bounds move between solves.
	for j := cs.nOrig; j < cs.n; j++ {
		rv.up[j] = math.Inf(1)
	}
	rv.setWorkingSetCap(workingSetCap(m))
	return rv
}

// workingSetCap is the number of columns a pricing refill selects for a
// state with m rows: as many as the basis holds, and never fewer than
// wsMinCap. At most m of any set can enter before the multipliers have moved
// on, and on the scheduling models a set is spent after a dozen pivots
// whatever its size, so a larger one only costs more per pivot.
func workingSetCap(m int) int { return max(m, wsMinCap) }

// setWorkingSetCap sizes the pricing working set. A state that prices all
// its columns (see pricesAll) makes every column a member once and for all —
// full pricing, with no selection work ever; any other starts each simplex
// run with an empty set of capacity c.
func (rv *revised) setWorkingSetCap(c int) {
	rv.wsCap = c
	if !rv.pricesAll() {
		rv.ws = Resize(rv.ws, c)[:0]
		return
	}
	rv.ws = Resize(rv.ws, rv.width)
	for j := range rv.ws {
		rv.ws[j] = j
	}
}

// colDot returns a_j · y, where j may be any column including the implicit
// artificial singletons.
func (rv *revised) colDot(j int, y []float64) float64 {
	if j < rv.n {
		return rv.cs.dot(j, y)
	}
	return rv.artSign[j-rv.n] * y[j-rv.n]
}

// colScatterAdd adds a_j into out.
func (rv *revised) colScatterAdd(j int, out []float64) {
	if j < rv.n {
		rv.cs.scatterAdd(j, 1, out)
		return
	}
	out[j-rv.n] += rv.artSign[j-rv.n]
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
		// it start at |residual| >= 0.
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
//
// Every other column is carried with its nonzero pattern — its own rows plus
// each row the FTRAN fills — so it costs its nonzeros, one pass over the etas
// and its fill, not m: on the scheduling models a column FTRANs to about five
// nonzeros of a hundred or more rows. The pattern is sorted before the pivot
// search and the eta push, so both meet the nonzeros in the row order a dense
// scan would, and every row left out is an exact zero: the pivots, the etas
// and everything computed from them are the dense loop's bit for bit.
func (rv *revised) refactor() bool {
	rv.stats.Refactorizations++
	rv.ef.reset()
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
	seated := rv.factBasis // per row: the column pivoted there, -1 while free
	for i := range seated {
		seated[i] = -1
	}
	// The caller's last FTRAN'd column is still in col: clear it once, and
	// each column below clears the rows it wrote.
	w := rv.col
	for i := range w {
		w[i] = 0
	}
	cs, mark := rv.cs, rv.inPattern
	for _, pos := range order {
		j := rv.basis[pos]
		if rv.colNNZ(j) == 1 {
			r, v := rv.singleton(j)
			if seated[r] >= 0 || math.Abs(v) <= singularTol {
				return false
			}
			if v != 1 {
				rv.ef.pushSingleton(r, 1/v)
			}
			seated[r] = j
			continue
		}
		// A structural column (artificials are singletons). The counting-sort
		// buckets are spent, so factCount holds the pattern.
		pat := rv.factCount[:0]
		for k := cs.ptr[j]; k < cs.ptr[j+1]; k++ {
			i := cs.idx[k]
			w[i] = cs.val[k]
			mark[i] = true
			pat = append(pat, i)
		}
		pat = rv.ef.ftranPattern(w, pat, mark)
		// Insertion sort: a handful of rows, the column's own already
		// ascending.
		for a := 1; a < len(pat); a++ {
			for b := a; b > 0 && pat[b] < pat[b-1]; b-- {
				pat[b], pat[b-1] = pat[b-1], pat[b]
			}
		}
		r := -1
		best := singularTol
		for _, i := range pat {
			if seated[i] >= 0 {
				continue
			}
			if a := math.Abs(w[i]); a > best {
				best = a
				r = i
			}
		}
		if r >= 0 {
			rv.ef.pushPattern(r, w, pat)
			seated[r] = j
		}
		for _, i := range pat {
			w[i] = 0
			mark[i] = false
		}
		if r < 0 {
			return false
		}
	}
	copy(rv.basis, seated)
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
// installed, or from the crash basis put in its place. On a numeric failure
// (singular refactorization) it rebuilds the all-slack basis and retries once
// from there before giving up with IterationLimit.
func (rv *revised) solveCold(lower, upper []float64) *Solution {
	rv.reset(lower, upper)
	rv.crash(lower, upper)
	sol := rv.runCold()
	if sol.Status == numericFailure {
		rv.reset(lower, upper)
		sol = rv.runCold()
		if sol.Status == numericFailure {
			sol = rv.answer(Solution{Status: IterationLimit, Iters: rv.iters})
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
		rv.rebuildMovable()
		status, obj := rv.simplex(ph1)
		if status == numericFailure {
			return rv.answer(Solution{Status: numericFailure})
		}
		if status == IterationLimit {
			return rv.answer(Solution{Status: IterationLimit, Iters: rv.iters})
		}
		if obj < -FeasTol {
			rv.farkasRow = -1
			return rv.answer(Solution{Status: Infeasible, Iters: rv.iters})
		}
		rv.driveOutArtificials()
		// Forbid artificials from re-entering or growing: clamp to zero. A
		// still-basic artificial (value 0) keeps acting as its row's
		// identity column, but the zero upper bound makes the phase-2 ratio
		// test block any move that would lift it; without the clamp phase 2
		// could silently relax an equality row.
		for i := 0; i < rv.m; i++ {
			if rv.artUsed[i] {
				rv.up[rv.n+i] = 0
			}
		}
	}
	// The crash, the phase-1 clamp and driveOutArtificials all move what can
	// move without keeping the list; each phase starts from a fresh one.
	rv.rebuildMovable()
	status, obj := rv.simplex(rv.c)
	if status == numericFailure {
		return rv.answer(Solution{Status: numericFailure})
	}
	if status != Optimal {
		return rv.answer(Solution{Status: status, Iters: rv.iters})
	}
	return rv.extract(obj)
}

// driveOutArtificials swaps basic artificials (at value zero after phase 1)
// for nonbasic structural/slack columns resting at their lower bound where a
// nonzero pivot exists, shrinking the set of clamped identity columns phase 2
// must carry. The swap is degenerate — the point does not move.
func (rv *revised) driveOutArtificials() {
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
			// the resting value it held as a nonbasic variable.
			rv.xB[i] = rv.lo[j]
			break
		}
	}
}

// objValue evaluates obj at the current point: basic values plus nonbasic
// columns resting at nonzero bounds. Fixed columns count, so the pass is over
// every column, not the movable list.
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
// its opposite bound.
//
// Pricing is Devex (steepest-edge approximation over a reference framework)
// over a working set of candidate columns rather than over every column: a
// pivot prices and weight-updates the members only, and when none of them
// improves, one full pass over all columns refills the set with the
// best-scoring improving ones (see refill). "That pass found none" is the
// optimality proof, so every Optimal verdict rests on a full pass, as does
// every step of the Bland's-rule fallback that takes over after blandTrip
// iterations to guarantee termination under degeneracy. Each iteration costs
// one BTRAN for the multipliers, one pricing pass over the set, one FTRAN for
// the entering column, and (on a pivot) one BTRAN'd pivot row for the Devex
// update — O(set nonzeros + eta fill), whatever the column count.
func (rv *revised) simplex(obj []float64) (Status, float64) {
	maxIters := 20000 + 200*(rv.m+rv.width)
	rv.openWorkingSet()
	for iter := 0; ; iter++ {
		if rv.iters++; rv.iters > maxIters {
			return IterationLimit, 0
		}
		if rv.ef.count()-rv.lastFact > refactorEvery {
			if !rv.refactorAndRecompute() {
				return numericFailure, 0
			}
		}
		y := rv.multipliers(obj)

		useBland := iter > blandTrip
		var enter int
		if useBland {
			enter = rv.priceBland(obj, y)
		} else if enter = rv.priceSet(obj, y); enter < 0 && !rv.pricesAll() {
			enter = rv.refill(obj, y)
		}
		if enter < 0 {
			return Optimal, rv.objValue(obj)
		}

		// FTRAN the entering column.
		w := rv.col
		for i := range w {
			w[i] = 0
		}
		rv.colScatterAdd(enter, w)
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
				if lb := rv.lo[rv.basis[i]]; rv.xB[i] < lb && rv.xB[i] > lb-FeasTol {
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

		// The Devex update needs the pivot row of the outgoing basis inverse.
		// Bland's rule, once on, stays on until this run ends and reads no
		// weight.
		if !useBland {
			rho := rv.rho
			for i := range rho {
				rho[i] = 0
			}
			rho[leave] = 1
			rv.ef.btran(rho)
			rv.devexUpdate(enter, leave, piv, rho)
		}

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
			if lb := rv.lo[rv.basis[i]]; rv.xB[i] < lb && rv.xB[i] > lb-FeasTol {
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
		rv.swapMovable(enter, leavingCol)
	}
}

// multipliers returns the simplex multipliers y = obj_B B^-1 of the current
// basis, in the state's scratch.
func (rv *revised) multipliers(obj []float64) []float64 {
	y := rv.y
	for i := 0; i < rv.m; i++ {
		y[i] = obj[rv.basis[i]]
	}
	rv.ef.btran(y)
	return y
}

// canMove reports whether column j is nonbasic and free to move: a fixed
// column (clamped artificials included) can neither enter the basis nor
// change a ratio test.
func (rv *revised) canMove(j int) bool {
	return !rv.inBasis[j] && rv.up[j]-rv.lo[j] > eps
}

// rebuildMovable lists the movable columns afresh.
func (rv *revised) rebuildMovable() {
	rv.mov = rv.mov[:0]
	rv.listMovable(0)
}

// listMovable appends every movable column from j on to mov, whose entries
// must be the movable columns before j.
func (rv *revised) listMovable(j int) {
	mov, k := rv.mov[:rv.width], len(rv.mov)
	for ; j < rv.width; j++ {
		mov[k] = int32(j)
		if rv.canMove(j) {
			k++
		}
	}
	rv.mov = mov[:k]
	if rv.onPivot != nil {
		rv.onPivot()
	}
}

// swapMovable keeps mov current through a basis change: enter, which was
// movable, is now basic, and leaving is nonbasic and joins the list if it can
// move. One shift of the entries between the two positions does both.
func (rv *revised) swapMovable(enter, leaving int) {
	mov := rv.mov
	a, _ := slices.BinarySearch(mov, int32(enter))
	if !rv.canMove(leaving) {
		rv.mov = slices.Delete(mov, a, a+1)
	} else if b, _ := slices.BinarySearch(mov, int32(leaving)); b <= a {
		copy(mov[b+1:a+1], mov[b:a])
		mov[b] = int32(leaving)
	} else {
		copy(mov[a:b-1], mov[a+1:b])
		mov[b-1] = int32(leaving)
	}
	if rv.onPivot != nil {
		rv.onPivot()
	}
}

// improves reports whether nonbasic column j raises the objective by leaving
// its resting bound on reduced cost rc: up from the lower bound on a positive
// one, down from the upper on a negative.
func (rv *revised) improves(j int, rc float64) bool {
	if rv.atUpper[j] {
		return rc < -eps
	}
	return rc > eps
}

// priceSet returns the working-set member with the best Devex score among
// those that improve the objective, or -1 when none does. The set is in
// column order, so ties keep the lowest column, as they do under full
// pricing.
func (rv *revised) priceSet(obj, y []float64) int {
	rv.stats.PricedColumns += len(rv.ws)
	if rv.pricesAll() {
		rv.stats.FullPricingPasses++
	}
	enter, best := -1, 0.0
	for _, j := range rv.ws {
		if !rv.canMove(j) {
			continue
		}
		rc := obj[j] - rv.colDot(j, y)
		if !rv.improves(j, rc) {
			continue
		}
		if score := rc * rc / rv.dvx[j]; score > best {
			best, enter = score, j
		}
	}
	return enter
}

// priceBland returns the lowest-numbered improving column of all, or -1.
func (rv *revised) priceBland(obj, y []float64) int {
	rv.stats.PricedColumns += rv.width
	rv.stats.FullPricingPasses++
	for _, j := range rv.mov {
		if j := int(j); rv.improves(j, obj[j]-rv.colDot(j, y)) {
			return j
		}
	}
	return -1
}

// refill prices every movable column once (mov, in column order: a basic or
// fixed column cannot enter) and makes the wsCap improving columns with
// the largest squared reduced cost the new working set, each at reference
// weight one — a refill restarts the Devex framework on the set it selects,
// which is why no weight is ever needed for a non-member. It returns the best
// of them (ties to the lowest column, so the choice is the Dantzig rule's),
// or -1 when no column improves: the current basis is optimal.
//
// Selection is a bounded min-heap held in ws itself, keyed by the candidates'
// scores parked in dvx; the root is the worst candidate kept (see wsWorse),
// so a column displaces it only on a strictly larger score and the ascending
// scan prefers low columns among equals. The chosen set is then put in column
// order, which is the order priceSet breaks its ties in.
func (rv *revised) refill(obj, y []float64) int {
	rv.stats.PricedColumns += rv.width
	rv.stats.FullPricingPasses++
	rv.ws = rv.ws[:0]
	enter, best := -1, 0.0
	for _, j := range rv.mov {
		j := int(j)
		rc := obj[j] - rv.colDot(j, y)
		if !rv.improves(j, rc) {
			continue
		}
		score := rc * rc
		if score > best {
			best, enter = score, j
		}
		if len(rv.ws) < rv.wsCap {
			rv.dvx[j] = score
			rv.ws = append(rv.ws, j)
			rv.wsSiftUp(len(rv.ws) - 1)
		} else if score > rv.dvx[rv.ws[0]] {
			rv.dvx[j] = score
			rv.ws[0] = j
			rv.wsSiftDown()
		}
	}
	sort.Ints(rv.ws)
	rv.devexReset()
	return enter
}

// wsWorse orders refill candidates: column a is a worse pick than b on a
// lower score, or on an equal score and a higher column number.
func (rv *revised) wsWorse(a, b int) bool {
	return rv.dvx[a] < rv.dvx[b] || (rv.dvx[a] == rv.dvx[b] && a > b)
}

// wsSiftUp and wsSiftDown restore the refill heap (worst candidate at the
// root) after an append at i, or a replacement of the root.
func (rv *revised) wsSiftUp(i int) {
	ws := rv.ws
	for i > 0 {
		up := (i - 1) / 2
		if !rv.wsWorse(ws[i], ws[up]) {
			return
		}
		ws[i], ws[up] = ws[up], ws[i]
		i = up
	}
}

func (rv *revised) wsSiftDown() {
	ws, i := rv.ws, 0
	for {
		c := 2*i + 1
		if c >= len(ws) {
			return
		}
		if c+1 < len(ws) && rv.wsWorse(ws[c+1], ws[c]) {
			c++
		}
		if !rv.wsWorse(ws[c], ws[i]) {
			return
		}
		ws[i], ws[c] = ws[c], ws[i]
		i = c
	}
}

// pricesAll reports whether the working set is every column, for good:
// pricing it is a full pass and it is never refilled. That is the case unless
// the columns outnumber a selected set wsSparsity times over — a refill is a
// full pass itself and buys a dozen pivots, each on a staler choice than full
// Devex pricing would make, so it pays only where it skips most of the model
// (the 100-analysis campaigns: 102 rows, ~990 columns); the paper's models
// (6 rows, ~150 columns) are priced whole.
func (rv *revised) pricesAll() bool { return rv.width <= wsSparsity*rv.wsCap }

// openWorkingSet starts a simplex run: an all-member set gets its reference
// framework reset to the current basis (every weight one, making the first
// pricing pass plain Dantzig); a selected set is dropped, so the run's first
// pricing is a refill against its own objective and basis.
func (rv *revised) openWorkingSet() {
	if rv.pricesAll() {
		rv.devexReset()
	} else {
		rv.ws = rv.ws[:0]
	}
}

// devexReset returns every member's reference weight to one.
func (rv *revised) devexReset() {
	for _, j := range rv.ws {
		rv.dvx[j] = 1
	}
}

// devexUpdate maintains the Devex reference weights after a pivot: each
// nonbasic member's weight rises to track its steepest-edge norm estimate
// through the basis change, and the leaving variable gets the entering
// column's transformed weight. Weights that outgrow dvxReset reset the whole
// framework (the estimates have drifted too far from the reference basis to
// stay meaningful).
//
// A selected set only shrinks between refills: the entering column stays
// listed while basic (pricing skips it, and it is a member again, at the
// weight written here, if it leaves), but a leaving column that was not
// listed is not added — its weight lands in a slot nothing reads, and it
// waits for the next refill like every other non-member. Letting it join
// invites the swap straight back, which on the 220-analysis models cost a
// quarter more root iterations.
func (rv *revised) devexUpdate(enter, leave int, piv float64, rho []float64) {
	wq := rv.dvx[enter]
	pivSq := piv * piv
	maxW := 0.0
	for _, j := range rv.ws {
		if j == enter || !rv.canMove(j) {
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
		rv.devexReset()
	}
}

// answer returns sol as the solve's result: written into the state's own
// Solution in lean mode, which the next solve overwrites, and a fresh one
// otherwise. The fresh one is a copy so that only that branch allocates; the
// address of sol itself would move it to the heap on every call.
func (rv *revised) answer(sol Solution) *Solution {
	if !rv.lean {
		fresh := sol
		return &fresh
	}
	rv.sol = sol
	return &rv.sol
}

// extract materializes the current optimal basis into a Solution, snapping
// values near the current bounds onto them. In lean mode the duals are
// skipped — the branch-and-bound hot path never reads them — and the point is
// written into the state's own buffer instead of a fresh vector per solve.
func (rv *revised) extract(obj float64) *Solution {
	nOrig := rv.cs.nOrig
	x := rv.xLean
	if !rv.lean {
		x = make([]float64, nOrig)
	}
	lo, up := rv.lo[:nOrig], rv.up[:nOrig]
	for j := range x {
		if rv.inBasis[j] {
			continue
		}
		v := lo[j]
		if rv.atUpper[j] {
			v = up[j]
		}
		x[j] = snapToBounds(v, lo[j], up[j])
	}
	for i, col := range rv.basis {
		if col < nOrig {
			x[col] = snapToBounds(rv.xB[i], lo[col], up[col])
		}
	}
	if rv.lean {
		return rv.answer(Solution{Status: Optimal, X: x, Objective: obj, Iters: rv.iters})
	}
	// The simplex multipliers give the duals: for a maximization the shadow
	// price of a <= or >= row is y_r, in the row's own units once divided by
	// its scale; equality rows report NaN (see Solution.Duals).
	y := rv.multipliers(rv.c)
	duals := make([]float64, rv.m)
	for r := 0; r < rv.m; r++ {
		if rv.cs.sense[r] == EQ {
			duals[r] = math.NaN()
			continue
		}
		z := y[r] / rv.cs.scale[r]
		if math.Abs(z) < FeasTol {
			z = 0
		}
		duals[r] = z
	}
	return &Solution{Status: Optimal, X: x, Objective: obj, Iters: rv.iters, Duals: duals}
}

// snapToBounds returns v moved onto a bound it lies within FeasTol of — lo
// first, then a finite up.
func snapToBounds(v, lo, up float64) float64 {
	if math.Abs(v-lo) < FeasTol {
		v = lo
	}
	if !math.IsInf(up, 1) && math.Abs(v-up) < FeasTol {
		v = up
	}
	return v
}
