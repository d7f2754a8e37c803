package lp

import "math"

// applyBounds installs new original-space bounds into a previously solved
// state. Basic columns just get the new bounds; a nonbasic column keeps its
// resting side unless that side no longer exists (an upper bound relaxed to
// +Inf moves the variable to its lower bound). The basic values are
// recomputed from scratch by the caller, so no delta propagation is needed.
// The same pass lists the movable columns for the re-solve: the new bounds
// fix and free columns, and an installed basis changes which are basic.
func (rv *revised) applyBounds(lower, upper []float64) {
	nOrig := rv.cs.nOrig
	mov, k := rv.mov[:rv.width], 0
	for j := 0; j < nOrig; j++ {
		lo, up := lower[j], upper[j]
		rv.lo[j], rv.up[j] = lo, up
		if rv.inBasis[j] {
			continue
		}
		if rv.atUpper[j] && math.IsInf(up, 1) {
			rv.atUpper[j] = false
		}
		mov[k] = int32(j)
		if up-lo > eps { // canMove, on the bounds in hand
			k++
		}
	}
	rv.mov = mov[:k]
	rv.listMovable(nOrig)
}

// resolve warm-starts the previously solved state under new bounds: install
// the bounds, recompute the basic values with one FTRAN, restore primal
// feasibility with the bounded-variable dual simplex, then let the primal
// simplex finish (usually zero pivots). The boolean reports whether the warm
// path produced a trustworthy answer; on false the caller must re-solve
// cold. A returned Infeasible solution is dual-certified: the dual run found
// a violated row whose nonbasic columns cannot repair the violation, a
// Farkas-style certificate that needs no cold phase-1 confirmation.
func (rv *revised) resolve(lower, upper []float64) (*Solution, bool) {
	rv.iters = 0
	rv.applyBounds(lower, upper)
	rv.computeXB()
	ok, infeasible := rv.dualSimplex()
	if !ok {
		return nil, false
	}
	if infeasible {
		return rv.answer(Solution{Status: Infeasible, Iters: rv.iters}), true
	}
	status, obj := rv.simplex(rv.c)
	if status != Optimal {
		return nil, false
	}
	return rv.extract(obj), true
}

// dualSimplex runs the bounded-variable dual simplex until primal
// feasibility is restored, starting from a dual-feasible (previously
// optimal) basis whose bounds have moved. It returns (true, false) on
// success, (true, true) when a violated row is certified unrepairable (the
// subproblem is infeasible), and (false, _) when it finds no trustworthy
// pivot or exceeds its iteration budget — the caller must then re-solve
// cold.
func (rv *revised) dualSimplex() (ok, infeasible bool) {
	maxIter := 50 + 2*(rv.m+rv.width)
	for iter := 0; iter < maxIter; iter++ {
		if rv.ef.count()-rv.lastFact > refactorEvery {
			if !rv.refactorAndRecompute() {
				return false, false
			}
		}
		// Leaving row: the most-violated basic variable.
		r := -1
		above := false
		worst := FeasTol
		for i := 0; i < rv.m; i++ {
			b := rv.basis[i]
			if v := rv.lo[b] - rv.xB[i]; v > worst {
				worst, r, above = v, i, false
			}
			if v := rv.xB[i] - rv.up[b]; v > worst {
				worst, r, above = v, i, true
			}
		}
		if r < 0 {
			return true, false
		}
		rv.iters++

		// Pivot row rho = e_r B^-1 and multipliers y = c_B B^-1.
		rho := rv.rho
		for i := range rho {
			rho[i] = 0
		}
		rho[r] = 1
		rv.ef.btran(rho)
		y := rv.multipliers(rv.c)

		// Entering column: among sign-admissible movable columns (those
		// whose pivot keeps every reduced cost on its feasible side), take
		// the minimum |d_j|/|alpha_j| ratio; ties break on the smallest
		// index so the restoration is deterministic. mov holds exactly the
		// columns a full scan would not skip, in the order it meets them,
		// so the eps-window tie-break sees the same sequence.
		enter := -1
		bestRatio := math.Inf(1)
		for _, j := range rv.mov {
			j := int(j)
			alpha := rv.colDot(j, rho)
			rv.alpha[j] = alpha // certifyInfeasible reads the row back
			if math.Abs(alpha) < dualPivTol {
				continue
			}
			// The leaving variable exits at its violated bound; its new
			// reduced cost is -d_j/alpha, which must be <= 0 when it leaves
			// at its lower bound and >= 0 at its upper bound. Combined with
			// the sign of d_j at each resting side, that fixes the
			// admissible sign of alpha.
			if !above {
				if !rv.atUpper[j] && alpha > -dualPivTol {
					continue
				}
				if rv.atUpper[j] && alpha < dualPivTol {
					continue
				}
			} else {
				if !rv.atUpper[j] && alpha < dualPivTol {
					continue
				}
				if rv.atUpper[j] && alpha > -dualPivTol {
					continue
				}
			}
			d := rv.c[j] - rv.colDot(j, y)
			ratio := math.Abs(d) / math.Abs(alpha)
			if ratio < bestRatio-eps || (ratio < bestRatio+eps && enter >= 0 && j < enter) {
				bestRatio = ratio
				enter = j
			}
		}
		if enter < 0 {
			rv.farkasRow = r
			return rv.certifyInfeasible(rho, worst, above)
		}

		// FTRAN the entering column; its row-r component is the pivot.
		w := rv.col
		for i := range w {
			w[i] = 0
		}
		rv.colScatterAdd(enter, w)
		rv.ef.ftran(w)
		piv := w[r]
		if math.Abs(piv) < dualPivTol {
			// The FTRAN'd pivot disagrees with the BTRAN'd row — the eta
			// chain has drifted. Refactorize and retry; on a fresh
			// factorization the basis itself is suspect, so fall back.
			if rv.ef.count() > rv.lastFact {
				if !rv.refactorAndRecompute() {
					return false, false
				}
				continue
			}
			return false, false
		}

		// Step length: move the entering variable until the leaving basic
		// variable reaches its violated bound.
		bound := rv.lo[rv.basis[r]]
		if above {
			bound = rv.up[rv.basis[r]]
		}
		step := (rv.xB[r] - bound) / piv
		rest := rv.lo[enter]
		if rv.atUpper[enter] {
			rest = rv.up[enter]
		}
		for i := 0; i < rv.m; i++ {
			if w[i] != 0 {
				rv.xB[i] -= w[i] * step
			}
		}
		rv.ef.push(r, w)
		rv.noteEta()
		leavingCol := rv.basis[r]
		rv.basis[r] = enter
		rv.inBasis[enter] = true
		rv.atUpper[enter] = false
		rv.inBasis[leavingCol] = false
		rv.atUpper[leavingCol] = above
		rv.xB[r] = rest + step
		rv.stats.DualPivots++
		rv.swapMovable(enter, leavingCol)
	}
	return false, false
}

// certifyInfeasible decides what "no admissible dual pivot" means for the
// violated row r with pivot row rho. The row equation
//
//	x_Br + sum_j alpha_j x_j = rho·b
//
// bounds how far the violated basic variable can move: only nonbasic columns
// whose alpha sign pushes x_Br toward its violated bound ("repairing"
// columns) help, and each contributes at most |alpha_j| times its bound
// span. When that total capacity cannot cover the violation, no feasible
// point exists — a Farkas-style certificate, so the warm path may report
// Infeasible directly instead of paying a cold phase-1 re-solve for the same
// verdict. With enough capacity the failure is merely numerical (every
// repairing pivot was below tolerance) and the caller falls back cold.
//
// The pass is over every nonbasic column, not the movable list: a column
// fixed within eps still adds its sliver of span to the capacity.
func (rv *revised) certifyInfeasible(rho []float64, violation float64, above bool) (ok, infeasible bool) {
	if rv.repairCapacity(rho, above) < violation-FeasTol {
		return true, true
	}
	return false, false
}

// repairCapacity sums |alpha_j| times the bound span over the nonbasic
// columns that repair the violated row of pivot row rho, in column order; it
// is +Inf when one of them has unlimited room. The ratio test that just failed
// left alpha_j of every movable column in rv.alpha, so only a nonbasic column
// with a span in (0, eps] is dotted with rho again; one of span 0 adds an
// exact 0 and is skipped. The sum is the one a full re-dot gives, bit for bit.
func (rv *revised) repairCapacity(rho []float64, above bool) float64 {
	capacity := 0.0
	for j := 0; j < rv.width; j++ {
		if rv.inBasis[j] {
			continue
		}
		span := rv.up[j] - rv.lo[j]
		var alpha float64
		switch {
		case span > eps: // canMove: the ratio test priced it
			alpha = rv.alpha[j]
		case span == 0:
			continue
		default:
			alpha = rv.colDot(j, rho)
		}
		if alpha == 0 {
			continue
		}
		repairing := false
		if !above {
			// x_Br must increase: decrease alpha_j x_j.
			repairing = (!rv.atUpper[j] && alpha < 0) || (rv.atUpper[j] && alpha > 0)
		} else {
			repairing = (!rv.atUpper[j] && alpha > 0) || (rv.atUpper[j] && alpha < 0)
		}
		if !repairing {
			continue
		}
		if math.IsInf(span, 1) {
			return span // unlimited repair room: not a certificate
		}
		capacity += math.Abs(alpha) * span
	}
	return capacity
}
