package lp

import "math"

// crashBisect bounds the surrogate-multiplier bisection of a crash whose
// knapsack rows each block the other's greedy (see crash).
const crashBisect = 6

// crashShape is the integer scratch the crash needs over the classes the
// problem declares (Problem.Classes), sized by newRevised over the arrays the
// state held for its last problem.
type crashShape struct {
	cur  []int // per class: the column it has reached, -1 for none
	next []int // per class: the column its next hull step reaches
	heap []int // classes that have a next step, most efficient at the root
}

// crash replaces the all-slack basis reset installed with the basis of
// Dantzig's greedy for the multiple-choice knapsack LP, when the problem
// declares that shape (Problem.Classes: class rows first, knapsack rows
// after) and every variable starts at zero (DESIGN.md §12, "Cold start"): the
// columns the greedy reaches are basic in their class rows, the column of its
// one fractional step in the knapsack row that blocked it, every other row
// keeps its slack — primal feasible, and triangular up to the fractional
// class's 2x2 block, whose determinant is the blocking row's positive
// coefficient difference — so phase 2 starts from it directly. It trusts the
// declaration, which Validate checked. Whatever the bounds or the numbers
// decline leaves, or restores, the all-slack start; against roundoff, a basis
// is kept only if it refactorizes and its basic values lie within FeasTol.
func (rv *revised) crash(lower, upper []float64) {
	if k := rv.p.Classes; rv.noCrash || k == 0 || k == rv.m {
		return
	}
	for _, l := range lower {
		if l != 0 {
			return
		}
	}
	// Each row is still paired with its own slack, which a seated column
	// replaces.
	blocked, fracCol := rv.crashPoint(upper)
	seated := blocked >= 0
	if seated {
		rv.seat(blocked, fracCol)
	}
	for g, col := range rv.shape.cur {
		if col >= 0 {
			rv.seat(g, col)
			seated = true
		}
	}
	if !seated {
		return
	}
	if rv.refactorAndRecompute() && rv.snapFeasible() {
		rv.stats.CrashStarts++
		return
	}
	rv.reset(lower, upper)
}

// crashPoint runs the greedy under the surrogate cost that lands nearest the
// LP optimum: one knapsack row's coefficients if that row's own greedy is
// blocked by that row or by nothing (the point then is the optimum), and
// otherwise a combination of the first row and its blocker, bisected toward
// the weight at which the blocking row flips. It returns the last pass's
// outcome (see crashGreedy).
func (rv *revised) crashPoint(upper []float64) (blocked, fracCol int) {
	a, b := rv.p.Classes, -1
	for k := a; k < rv.m; k++ {
		blocked, fracCol = rv.crashGreedy(upper, k, 1, -1, 0)
		if blocked < 0 || blocked == k {
			return blocked, fracCol
		}
		if b < 0 {
			b = blocked
		}
	}
	lo, hi := 0.0, 1.0 // the weight on row b
	for pass := 0; pass < crashBisect; pass++ {
		t := (lo + hi) / 2
		blocked, fracCol = rv.crashGreedy(upper, a, (1-t)/rv.b[a], b, t/rv.b[b])
		switch blocked {
		case a:
			hi = t
		case b:
			lo = t
		default:
			return blocked, fracCol
		}
	}
	return blocked, fracCol
}

// seat makes col basic in row, in place of the column that was.
func (rv *revised) seat(row, col int) {
	rv.inBasis[rv.basis[row]] = false
	rv.basis[row], rv.inBasis[col] = col, true
}

// snapFeasible reports whether every basic value lies within FeasTol of its
// bounds, moving the ones roundoff left just outside onto the bound.
func (rv *revised) snapFeasible() bool {
	for i, col := range rv.basis {
		x := rv.xB[i]
		if x < rv.lo[col]-FeasTol || x > rv.up[col]+FeasTol {
			return false
		}
		rv.xB[i] = math.Min(math.Max(x, rv.lo[col]), rv.up[col])
	}
	return true
}

// crashGreedy runs one greedy pass under the surrogate cost
// wa*row a + wb*row b (b < 0: row a alone): each class walks the upper hull of
// its columns' (cost, objective) points from the origin, the steps of all
// classes are taken in order of decreasing efficiency while every knapsack row
// has room, and the pass ends at the first step that does not fit. It leaves
// each class's reached column in shape.cur and returns the row that blocked
// that step (the one leaving least room for it) and the step's column, or
// -1, -1 when every step fitted.
func (rv *revised) crashGreedy(upper []float64, a int, wa float64, b int, wb float64) (int, int) {
	sh, cs := &rv.shape, rv.cs
	// Surrogate cost per column; -1 marks a column the crash may not use
	// (no room to reach 1, or nothing to gain).
	w := rv.cPh1[:cs.nOrig]
	for j := range w {
		w[j] = -1
		if upper[j] >= 1 && rv.c[j] > 0 {
			w[j] = 0
			for k := cs.ptr[j]; k < cs.ptr[j+1]; k++ {
				if cs.idx[k] == a {
					w[j] += wa * cs.val[k]
				} else if cs.idx[k] == b {
					w[j] += wb * cs.val[k]
				}
			}
		}
	}
	knap := rv.p.Classes   // the first knapsack row
	use, d := rv.y, rv.rho // per knapsack row: room taken so far, and by this step
	clear(use[knap:])
	sh.heap = sh.heap[:0]
	for g := range sh.cur {
		sh.cur[g] = -1
		if rv.hullStep(g) {
			sh.heap = append(sh.heap, g)
		}
	}
	for i := len(sh.heap)/2 - 1; i >= 0; i-- {
		rv.crashSiftDown(i)
	}
	for len(sh.heap) > 0 {
		g := sh.heap[0]
		clear(d[knap:])
		cs.scatterAdd(sh.next[g], 1, d)
		if sh.cur[g] >= 0 {
			cs.scatterAdd(sh.cur[g], -1, d)
		}
		blocked, theta := -1, math.Inf(1)
		for k := knap; k < rv.m; k++ {
			if d[k] > 0 && use[k]+d[k] > rv.b[k] {
				if t := (rv.b[k] - use[k]) / d[k]; t < theta {
					blocked, theta = k, t
				}
			}
		}
		if blocked >= 0 {
			return blocked, sh.next[g]
		}
		for k := knap; k < rv.m; k++ {
			use[k] += d[k]
		}
		sh.cur[g] = sh.next[g]
		if !rv.hullStep(g) {
			last := len(sh.heap) - 1
			sh.heap[0], sh.heap = sh.heap[last], sh.heap[:last]
		}
		rv.crashSiftDown(0)
	}
	return -1, -1
}

// hullStep finds the next vertex of class g's upper hull after the column it
// has reached: the usable column of larger objective with the steepest
// objective-per-cost slope from there (the farthest of several on one line, so
// collinear columns are stepped over), and records it with its slope. It
// reports false at the end of the hull.
func (rv *revised) hullStep(g int) bool {
	sh, w, c := &rv.shape, rv.cPh1, rv.c
	w0, c0 := 0.0, 0.0
	if p := sh.cur[g]; p >= 0 {
		w0, c0 = w[p], c[p]
	}
	best, bestEff := -1, 0.0
	for _, j := range rv.p.Constraints[g].Idx {
		if w[j] < 0 || c[j] <= c0 {
			continue
		}
		e := math.Inf(1)
		if w[j] > w0 {
			e = (c[j] - c0) / (w[j] - w0)
		}
		if e > bestEff || (e == bestEff && c[j] > c[best]) {
			best, bestEff = j, e
		}
	}
	sh.next[g], rv.wrk[g] = best, bestEff
	return best >= 0
}

// crashSiftDown restores the class heap below position i: steeper next step
// first, the lower row among equals.
func (rv *revised) crashSiftDown(i int) {
	h, eff := rv.shape.heap, rv.wrk
	before := func(x, y int) bool { return eff[x] > eff[y] || (eff[x] == eff[y] && x < y) }
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && before(h[c+1], h[c]) {
			c++
		}
		if !before(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
