package milp

import (
	"math"

	"insitu/internal/lp"
)

// presolveBounds tightens root variable bounds in place using single-row
// implied-bound ("activity") reasoning, the cheapest useful slice of what
// CPLEX's presolve does: for a row a·x <= b with every other variable at
// its row-minimizing bound, variable j must satisfy
// a_j x_j <= b - minActivity_without_j. GE rows are negated into LE form
// and EQ rows contribute both directions. Bounds of integer variables are
// rounded inward. Only reductions that cannot cut any feasible point are
// applied, so the search over the tightened box has the same optimum as
// the original model.
//
// It returns the number of bound tightenings and whether the root was
// proven infeasible outright (a row unsatisfiable even at minimum
// activity, or a variable's bounds crossing).
func presolveBounds(p *Problem, lower, upper []float64) (tightened int, infeasible bool) {
	var neg []float64 // a GE row negated into LE form, grown to the longest row
	// A few passes let tightenings propagate between rows; the scheduling
	// models converge in one or two.
	for pass := 0; pass < 4; pass++ {
		changed := 0
		apply := func(idx []int, coef []float64, rhs float64) bool {
			ch, bad := tightenLERow(p, idx, coef, rhs, lower, upper)
			tightened += ch
			changed += ch
			return bad
		}
		for _, c := range p.LP.Constraints {
			bad := false
			if c.Sense != lp.GE {
				bad = apply(c.Idx, c.Coef, c.RHS)
			}
			if c.Sense != lp.LE && !bad {
				neg = neg[:0]
				for _, v := range c.Coef {
					neg = append(neg, -v)
				}
				bad = apply(c.Idx, neg, -c.RHS)
			}
			if bad {
				return tightened, true
			}
		}
		if changed == 0 {
			break
		}
	}
	return tightened, false
}

// tightenLERow applies implied bounds from one a·x <= b row given as its
// nonzeros (coef[k] on variable idx[k]). Lower bounds are always finite in
// this package (lp.Validate rejects -Inf), so the only infinite contribution
// to the row's minimum activity comes from a negative coefficient on a
// variable with an infinite upper bound; one such column can still be
// bounded by the rest of the row, two make the row uninformative. The row may
// overshoot by lp.FeasTol, and a bound moves only by more than lp.ZeroTol.
func tightenLERow(p *Problem, idx []int, coef []float64, rhs float64, lower, upper []float64) (changed int, infeasible bool) {
	minAct := 0.0
	infIdx := -1
	for k, j := range idx {
		switch a := coef[k]; {
		case a > 0:
			minAct += a * lower[j]
		case a < 0:
			if math.IsInf(upper[j], 1) {
				if infIdx >= 0 {
					return 0, false
				}
				infIdx = j
				continue
			}
			minAct += a * upper[j]
		}
	}
	if infIdx < 0 && minAct > rhs+lp.FeasTol {
		return 0, true // row unsatisfiable even at its minimum activity
	}
	for k, j := range idx {
		a := coef[k]
		if a == 0 {
			continue
		}
		if infIdx >= 0 && infIdx != j {
			// Some other column drives the minimum activity to -Inf, so this
			// row implies nothing about j.
			continue
		}
		// Residual budget for j with every other variable at its
		// row-minimizing bound (infIdx's own term was never added).
		own := 0.0
		if j != infIdx {
			if a > 0 {
				own = a * lower[j]
			} else {
				own = a * upper[j]
			}
		}
		resid := rhs - (minAct - own)
		if a > 0 {
			nu := resid / a
			if p.Integer[j] {
				nu = math.Floor(nu + lp.FeasTol)
			}
			if nu < upper[j]-lp.ZeroTol {
				upper[j] = nu
				changed++
			}
		} else {
			nl := resid / a // dividing by a negative flips the inequality
			if p.Integer[j] {
				nl = math.Ceil(nl - lp.FeasTol)
			}
			if nl > lower[j]+lp.ZeroTol {
				lower[j] = nl
				changed++
			}
		}
		if lower[j] > upper[j]+lp.ZeroTol {
			return changed, true
		}
	}
	return changed, false
}
