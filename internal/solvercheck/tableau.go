package solvercheck

import (
	"math"

	"insitu/internal/lp"
)

// The oracle's own copies of the lp package tolerances: the two kernels
// share no code, only these values.
const (
	eps       = 1e-9
	feasTol   = 1e-7
	blandTrip = 5000 // switch to Bland's rule after this many Dantzig pivots
)

// tableau is the dense bounded-variable simplex working representation:
//
//	maximize  c·y   subject to  A y = b,  lo_j <= y_j <= u_j
//
// where y holds shifted originals (x_j = shift_j + y_j), one slack/surplus
// column per inequality row, and phase-1 artificials. Upper bounds are
// handled implicitly — nonbasic variables may rest at their lower OR upper
// bound, and the ratio test admits bound flips — so bounded variables cost
// no extra rows.
//
// The production kernel is the sparse revised simplex in package lp; this
// dense kernel is retained only as SolveReference, the independent oracle
// the differential suite (revised.go) pits the revised kernel against. The
// two implementations share no simplex code, which is what makes agreement
// between them meaningful.
type tableau struct {
	p *lp.Problem

	m, n  int         // rows, structural+slack columns (artificials appended after n)
	a     [][]float64 // m x width coefficient matrix, canonical w.r.t. basis
	val   []float64   // current VALUE of the basic variable in each row
	c     []float64   // phase-2 objective over all columns
	lo    []float64   // lower bound per column (0 after a cold build)
	u     []float64   // upper bound per column (+Inf when unbounded)
	cons  float64     // objective constant from bound shifting
	shift []float64   // per-original-variable shift captured at build time

	// curLow/curUp are the original-space bounds of the current solve, used
	// to snap extracted values; they track warm bound changes while shift
	// stays fixed.
	curLow []float64
	curUp  []float64

	basis   []int  // basic column per row
	inBasis []bool // column -> basic?
	atUpper []bool // nonbasic column rests at its upper bound
	width   int    // total columns incl. artificials
	nArt    int
	iters   int
	lean    bool // skip duals/reduced costs/activity in extracted solutions

	// cb and objScratch are per-solve scratch buffers (basic objective
	// coefficients; the phase-1 objective).
	cb         []float64
	objScratch []float64

	// consSlack maps each original constraint to its slack/surplus column
	// (-1 for equality rows), and consSense records the original sense, for
	// dual recovery.
	consSlack []int
	consSense []lp.Sense
}

// SolveReference solves the linear program with the dense tableau simplex.
// It exists for differential testing only: CheckRevised pits it against
// lp.Solve across the seeded corpora and fuzz targets, and any disagreement
// beyond tolerance is a bug in one of the kernels.
func SolveReference(p *lp.Problem) (*lp.Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return newTableau(p).solve(), nil
}

func newTableau(p *lp.Problem) *tableau {
	lower, upper := p.Lower, p.Upper
	nOrig := p.NumVars()
	m := len(p.Constraints)
	nSlack := 0
	for _, c := range p.Constraints {
		if c.Sense != lp.EQ {
			nSlack++
		}
	}
	n := nOrig + nSlack
	width := n + m // room for artificials

	t := &tableau{p: p, m: m, n: n, width: width}
	t.a = make([][]float64, m)
	for i := range t.a {
		t.a[i] = make([]float64, width)
	}
	t.val = make([]float64, m)
	t.c = make([]float64, width)
	t.lo = make([]float64, width)
	t.u = make([]float64, width)
	t.shift = make([]float64, nOrig)
	t.curLow = make([]float64, nOrig)
	t.curUp = make([]float64, nOrig)
	t.basis = make([]int, m)
	t.inBasis = make([]bool, width)
	t.atUpper = make([]bool, width)
	t.cb = make([]float64, m)
	t.objScratch = make([]float64, width)
	t.consSlack = make([]int, m)
	t.consSense = make([]lp.Sense, m)
	copy(t.shift, lower)
	copy(t.curLow, lower)
	copy(t.curUp, upper)
	for r := range t.consSlack {
		t.consSlack[r] = -1
	}

	for j := 0; j < nOrig; j++ {
		t.c[j] = p.Objective[j]
		t.cons += p.Objective[j] * lower[j]
		t.u[j] = upper[j] - lower[j]
	}
	for j := nOrig; j < width; j++ {
		t.u[j] = math.Inf(1)
	}

	slack := nOrig
	art := n
	for i, c := range p.Constraints {
		t.consSense[i] = c.Sense
		// Shift RHS for lower bounds: a·(lo+y) <= b  =>  a·y <= b - a·lo.
		shift := 0.0
		for k, j := range c.Idx {
			shift += c.Coef[k] * lower[j]
			t.a[i][j] = c.Coef[k] // scatter into the oracle's own dense row
		}
		rhs := c.RHS - shift
		sense := c.Sense
		// Normalize to non-negative RHS so artificials start feasible.
		if rhs < 0 {
			for j := 0; j < nOrig; j++ {
				t.a[i][j] = -t.a[i][j]
			}
			rhs = -rhs
			switch sense {
			case lp.LE:
				sense = lp.GE
			case lp.GE:
				sense = lp.LE
			}
		}
		t.val[i] = rhs
		switch sense {
		case lp.LE:
			t.a[i][slack] = 1
			t.setBasic(i, slack)
			t.consSlack[i] = slack
			slack++
		case lp.GE:
			t.a[i][slack] = -1
			t.consSlack[i] = slack
			slack++
			t.a[i][art] = 1
			t.setBasic(i, art)
			art++
		case lp.EQ:
			t.a[i][art] = 1
			t.setBasic(i, art)
			art++
		}
	}
	t.nArt = art - n
	return t
}

func (t *tableau) setBasic(row, col int) {
	t.basis[row] = col
	t.inBasis[col] = true
	t.atUpper[col] = false
}

func (t *tableau) solve() *lp.Solution {
	// Phase 1: drive the artificials to zero.
	if t.nArt > 0 {
		phase1 := t.objScratch
		for j := range phase1 {
			phase1[j] = 0
		}
		for j := t.n; j < t.n+t.nArt; j++ {
			phase1[j] = -1
		}
		status, obj := t.simplex(phase1)
		if status == lp.IterationLimit {
			return &lp.Solution{Status: lp.IterationLimit, Iters: t.iters}
		}
		if obj < -feasTol {
			return &lp.Solution{Status: lp.Infeasible, Iters: t.iters}
		}
		// Drive remaining basic artificials (at value 0) out where possible.
		// Only columns resting at their lower bound may enter: they hold
		// value 0, so the swap changes the basis without moving the point.
		for i := 0; i < t.m; i++ {
			if t.basis[i] < t.n {
				continue
			}
			for j := 0; j < t.n; j++ {
				if !t.inBasis[j] && !t.atUpper[j] && math.Abs(t.a[i][j]) > eps {
					t.pivot(i, j, false)
					break
				}
			}
		}
		// Forbid artificials from re-entering or growing. Nonbasic artificial
		// columns are destroyed outright. An artificial that is still basic
		// (at value zero, in a row where no resting-at-lower column could
		// host the swap above) keeps its column — it is the row's identity
		// column — but is clamped to an upper bound of zero so the phase-2
		// ratio test blocks any move that would lift it off zero. Without
		// the clamp its +Inf bound lets phase 2 grow it freely, silently
		// relaxing the underlying equality constraint.
		for j := t.n; j < t.n+t.nArt; j++ {
			if !t.inBasis[j] {
				for i := 0; i < t.m; i++ {
					t.a[i][j] = 0
				}
			}
			t.u[j] = 0
		}
	}

	status, obj := t.simplex(t.c)
	if status != lp.Optimal {
		return &lp.Solution{Status: status, Iters: t.iters}
	}
	return t.extract(obj)
}

// extract materializes the current optimal basis into a Solution, snapping
// values near the current bounds onto them. In lean mode the diagnostic
// fields (duals, reduced costs, row activity) are skipped — the
// branch-and-bound hot path never reads them and their allocations dominate
// a node solve.
func (t *tableau) extract(obj float64) *lp.Solution {
	x := make([]float64, t.p.NumVars())
	for j := range x {
		if t.atUpper[j] {
			x[j] = t.u[j]
		} else if t.lo[j] != 0 {
			x[j] = t.lo[j]
		}
	}
	for i, col := range t.basis {
		if col < t.p.NumVars() {
			x[col] = t.val[i]
		}
	}
	for j := range x {
		x[j] += t.shift[j]
		if math.Abs(x[j]-t.curLow[j]) < feasTol {
			x[j] = t.curLow[j]
		}
		if !math.IsInf(t.curUp[j], 1) && math.Abs(x[j]-t.curUp[j]) < feasTol {
			x[j] = t.curUp[j]
		}
	}
	if t.lean {
		return &lp.Solution{Status: lp.Optimal, X: x, Objective: obj + t.cons, Iters: t.iters}
	}
	activity, slacks := rowActivity(t.p, x)
	return &lp.Solution{
		Status:       lp.Optimal,
		X:            x,
		Objective:    obj + t.cons,
		Iters:        t.iters,
		Duals:        t.duals(),
		ReducedCosts: t.reducedCosts(),
		RowActivity:  activity,
		Slacks:       slacks,
	}
}

// reducedCosts returns c_j - z_j for each original variable at the current
// basis. Basic variables report exactly zero; near-zero values on nonbasic
// variables are snapped to zero so degenerate optima read cleanly.
func (t *tableau) reducedCosts() []float64 {
	out := make([]float64, t.p.NumVars())
	for j := range out {
		if t.inBasis[j] {
			continue
		}
		rc := t.c[j]
		for i := 0; i < t.m; i++ {
			if cb := t.c[t.basis[i]]; cb != 0 {
				rc -= cb * t.a[i][j]
			}
		}
		if math.Abs(rc) < feasTol {
			rc = 0
		}
		out[j] = rc
	}
	return out
}

// rowActivity evaluates each constraint at x, returning the activities a_r·x
// and the feasible-side slacks (RHS - activity for <=, activity - RHS for >=,
// |activity - RHS| for equality rows).
func rowActivity(p *lp.Problem, x []float64) (activity, slacks []float64) {
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
		case lp.LE:
			s = c.RHS - act
		case lp.GE:
			s = act - c.RHS
		case lp.EQ:
			s = math.Abs(act - c.RHS)
		}
		if math.Abs(s) < feasTol {
			s = 0
		}
		slacks[r] = s
	}
	return activity, slacks
}

// duals recovers the constraint multipliers from the reduced costs of the
// slack/surplus columns at the optimal basis: for a maximization, the shadow
// price of a <= row is z_slack and of a >= row is -z_surplus; equality rows
// report NaN (their artificial columns were zeroed after phase 1).
func (t *tableau) duals() []float64 {
	out := make([]float64, len(t.p.Constraints))
	for r := range out {
		col := t.consSlack[r]
		if col < 0 {
			out[r] = math.NaN()
			continue
		}
		z := 0.0
		for i := 0; i < t.m; i++ {
			if cb := t.c[t.basis[i]]; cb != 0 {
				z += cb * t.a[i][col]
			}
		}
		if t.consSense[r] == lp.GE {
			z = -z
		}
		if math.Abs(z) < feasTol {
			z = 0
		}
		out[r] = z
	}
	return out
}

// objValue evaluates obj at the current basic solution, including nonbasic
// columns resting at finite upper bounds or nonzero lower bounds.
func (t *tableau) objValue(obj []float64) float64 {
	v := 0.0
	for i := 0; i < t.m; i++ {
		v += obj[t.basis[i]] * t.val[i]
	}
	for j := 0; j < t.n+t.nArt; j++ {
		if t.inBasis[j] || obj[j] == 0 {
			continue
		}
		if t.atUpper[j] {
			v += obj[j] * t.u[j]
		} else if t.lo[j] != 0 {
			v += obj[j] * t.lo[j]
		}
	}
	return v
}

// simplex maximizes obj over the current basis with the bounded-variable
// rules: a nonbasic-at-lower column enters when its reduced cost is
// positive, a nonbasic-at-upper column when negative; the ratio test limits
// the move by basic variables hitting either of their bounds or the
// entering variable flipping to its opposite bound.
func (t *tableau) simplex(obj []float64) (lp.Status, float64) {
	maxIters := 20000 + 200*(t.m+t.width)
	cb := t.cb
	ncols := t.n + t.nArt
	for iter := 0; ; iter++ {
		if t.iters++; t.iters > maxIters {
			return lp.IterationLimit, 0
		}
		for i := 0; i < t.m; i++ {
			cb[i] = obj[t.basis[i]]
		}
		useBland := iter > blandTrip
		enter := -1
		enterScore := eps
		for j := 0; j < ncols; j++ {
			if t.inBasis[j] {
				continue
			}
			rc := obj[j]
			for i := 0; i < t.m; i++ {
				if cb[i] != 0 {
					rc -= cb[i] * t.a[i][j]
				}
			}
			// Improving directions: increase from lower (rc > 0) or
			// decrease from upper (rc < 0).
			score := 0.0
			if !t.atUpper[j] && rc > eps {
				score = rc
			} else if t.atUpper[j] && rc < -eps {
				score = -rc
			} else {
				continue
			}
			if useBland {
				enter = j
				break
			}
			if score > enterScore {
				enterScore = score
				enter = j
			}
		}
		if enter < 0 {
			return lp.Optimal, t.objValue(obj)
		}

		// Direction: +1 when increasing from lower, -1 when decreasing from
		// upper. Basic variable i changes by -dir*a[i][enter] per unit.
		dir := 1.0
		if t.atUpper[enter] {
			dir = -1
		}
		limit := t.u[enter] - t.lo[enter] // bound-flip distance (may be +Inf)
		leave := -1
		leaveAtUpper := false
		for i := 0; i < t.m; i++ {
			d := dir * t.a[i][enter]
			var ratio float64
			var hitsUpper bool
			switch {
			case d > eps: // basic value decreases toward its lower bound
				ratio = (t.val[i] - t.lo[t.basis[i]]) / d
			case d < -eps: // basic value increases toward its upper bound
				ub := t.u[t.basis[i]]
				if math.IsInf(ub, 1) {
					continue
				}
				ratio = (ub - t.val[i]) / (-d)
				hitsUpper = true
			default:
				continue
			}
			if ratio < limit-eps || (ratio < limit+eps && leave >= 0 && t.basis[i] < t.basis[leave]) {
				limit = ratio
				leave = i
				leaveAtUpper = hitsUpper
			}
		}
		if math.IsInf(limit, 1) {
			return lp.Unbounded, 0
		}
		if limit < 0 {
			limit = 0
		}

		if leave < 0 {
			// Bound flip: the entering variable travels all the way to its
			// opposite bound without any basic variable blocking.
			for i := 0; i < t.m; i++ {
				t.val[i] -= dir * t.a[i][enter] * limit
				if lb := t.lo[t.basis[i]]; t.val[i] < lb && t.val[i] > lb-feasTol {
					t.val[i] = lb
				}
			}
			t.atUpper[enter] = !t.atUpper[enter]
			continue
		}

		// Pivot: entering becomes basic at its new value; the leaving
		// variable exits at whichever bound it hit.
		newVal := t.lo[enter] + dir*limit
		if t.atUpper[enter] {
			newVal = t.u[enter] + dir*limit // dir = -1: u - limit
		}
		for i := 0; i < t.m; i++ {
			t.val[i] -= dir * t.a[i][enter] * limit
			if lb := t.lo[t.basis[i]]; t.val[i] < lb && t.val[i] > lb-feasTol {
				t.val[i] = lb
			}
		}
		leavingCol := t.basis[leave]
		t.pivot(leave, enter, t.atUpper[enter])
		t.val[leave] = newVal
		t.inBasis[leavingCol] = false
		t.atUpper[leavingCol] = leaveAtUpper
		if leaveAtUpper {
			// Snap to the exact bound to stop error accumulation.
			_ = leavingCol
		}
	}
}

// pivot makes column enter basic in row leave with Gauss-Jordan elimination.
// enterWasAtUpper records the entering column's pre-pivot resting bound so
// the caller can value it correctly; the elimination itself is bound-blind.
func (t *tableau) pivot(leave, enter int, enterWasAtUpper bool) {
	piv := t.a[leave][enter]
	inv := 1 / piv
	row := t.a[leave]
	for j := range row {
		row[j] *= inv
	}
	row[enter] = 1
	for i := 0; i < t.m; i++ {
		if i == leave {
			continue
		}
		f := t.a[i][enter]
		if f == 0 {
			continue
		}
		ai := t.a[i]
		for j := range ai {
			ai[j] -= f * row[j]
		}
		ai[enter] = 0
	}
	old := t.basis[leave]
	t.inBasis[old] = false
	t.setBasic(leave, enter)
	_ = enterWasAtUpper
}
