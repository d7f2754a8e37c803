package solvercheck

import (
	"fmt"
	"math"
	"math/big"
	"slices"

	"insitu/internal/lp"
)

// The LP oracle checks proofs, not a second solver's answers. Each verdict of
// the revised simplex carries its evidence: an optimal solve's final basis,
// an infeasible one's Farkas ray, or the conflicting bound pair that
// short-circuits a solve. A float64 is an exact dyadic rational, so big.Rat
// checks the evidence on the very problem the solver was given, and measures
// the largest violation of each kind: zero is a proof.

// violation is the largest breach of one condition found, and what breached it.
type violation struct {
	size float64
	what string
}

func (v *violation) note(size float64, format string, args ...any) {
	if size > v.size {
		v.size, v.what = size, fmt.Sprintf(format, args...)
	}
}

// certificate is what checking an optimal verdict against its basis measured.
type certificate struct {
	primal    violation // a basic column outside its bounds at the basis's vertex x
	dual      violation // a nonbasic column whose reduced cost would improve c·x
	objective float64   // |reported objective − c·x|
	point     float64   // largest |X_j − x_j| / max(1, |x_j|) over the variables
}

// err names the first condition c breaks, with its size. The vertex must be
// feasible and optimal exactly; the reported objective and point get objTol.
func (c certificate) err(objective float64) error {
	switch {
	case c.primal.size > 0:
		return fmt.Errorf("primal violation %g: %s", c.primal.size, c.primal.what)
	case c.dual.size > 0:
		return fmt.Errorf("dual violation %g: %s", c.dual.size, c.dual.what)
	case c.objective > objTol*math.Max(1, math.Abs(objective)):
		return fmt.Errorf("objective %g is %g away from c·x at the basis's vertex", objective, c.objective)
	case c.point > objTol:
		return fmt.Errorf("reported point is %g (relative) away from the basis's vertex", c.point)
	}
	return nil
}

// certify holds the verdict sol that s returned for p under the given bounds
// to its evidence, and counts in cov what vouched for it. The corpora are
// bounded by construction, so any other verdict is a failure.
func certify(s *lp.Solver, p *lp.Problem, lower, upper []float64, sol *lp.Solution, cov *revisedCoverage) error {
	switch b, y := s.Basis(), make([]float64, len(p.Constraints)); {
	case sol.Status == lp.Optimal && b != nil:
		basic, atUpper := b.Columns(p)
		c, err := certifyOptimal(p, lower, upper, basic, atUpper, sol)
		if err == nil {
			err = c.err(sol.Objective)
		}
		if err != nil {
			return fmt.Errorf("optimal %g: %v", sol.Objective, err)
		}
		cov.optimal++
	case sol.Status == lp.Infeasible && s.FarkasRay(y):
		if v := farkasGap(p, lower, upper, y); v.size <= 0 {
			return fmt.Errorf("infeasible: Farkas ray fails by %g: %s", -v.size, v.what)
		}
		cov.rays++
	case sol.Status == lp.Infeasible:
		for j := range lower {
			if lower[j] > upper[j] {
				return nil
			}
		}
		return fmt.Errorf("infeasible verdict with neither a Farkas ray nor conflicting bounds")
	default:
		return fmt.Errorf("%v verdict with no certificate on a bounded-variable instance", sol.Status)
	}
	return nil
}

// entry is one nonzero of a column.
type entry struct {
	row int
	v   float64
}

// equalityForm returns p's columns under the given bounds in equality form,
// numbered as lp.Basis.Columns numbers them: variable j, then n+r for row r's
// slack, +e_r (−e_r under ≥) in [0, +Inf), or fixed at zero under =.
func equalityForm(p *lp.Problem, lower, upper []float64) (cols [][]entry, c, lo, up []float64) {
	n, m := p.NumVars(), len(p.Constraints)
	cols = make([][]entry, n+m)
	c = append(append([]float64(nil), p.Objective...), make([]float64, m)...)
	lo = append(append([]float64(nil), lower...), make([]float64, m)...)
	up = append(append([]float64(nil), upper...), make([]float64, m)...)
	for r, row := range p.Constraints {
		for k, j := range row.Idx {
			if row.Coef[k] != 0 {
				cols[j] = append(cols[j], entry{r, row.Coef[k]})
			}
		}
		cols[n+r] = []entry{{r, 1}}
		if row.Sense == lp.GE {
			cols[n+r][0].v = -1
		}
		if row.Sense != lp.EQ {
			up[n+r] = math.Inf(1)
		}
	}
	return cols, c, lo, up
}

// certifyOptimal solves in exact arithmetic for the vertex x and multipliers
// y of the basis named as lp.Basis.Columns names it: basic, one column per
// row, and atUpper. It measures x's bound violations, the wrong-signed
// reduced costs, and how far sol's objective and point lie from x. It fails
// only when B is singular; no variable may rest at an infinite bound.
func certifyOptimal(p *lp.Problem, lower, upper []float64, basic []int, atUpper []bool, sol *lp.Solution) (certificate, error) {
	var cert certificate
	m, n := len(p.Constraints), p.NumVars()
	cols, c, lo, up := equalityForm(p, lower, upper)
	inB := make([]bool, n+m)
	for _, j := range basic {
		inB[j] = true
	}
	// The nonbasic columns rest at a bound: B x_B = b − N x_N.
	byRow, byCol, cB, rhs := make([]map[int]*big.Rat, m), make([]map[int]*big.Rat, m), make([]*big.Rat, m), make([]*big.Rat, m)
	for r, row := range p.Constraints {
		byRow[r], rhs[r] = map[int]*big.Rat{}, rat(row.RHS)
	}
	x := append([]float64(nil), lo...)
	for j := range x {
		if j < n && atUpper[j] {
			x[j] = up[j]
		}
		for _, e := range cols[j] {
			if x[j] != 0 && !inB[j] {
				rhs[e.row].Sub(rhs[e.row], new(big.Rat).Mul(rat(e.v), rat(x[j])))
			}
		}
	}
	for k, j := range basic {
		byCol[k], cB[k] = map[int]*big.Rat{}, rat(c[j])
		for _, e := range cols[j] {
			byRow[e.row][k], byCol[k][e.row] = rat(e.v), rat(e.v)
		}
	}
	xB, okx := solveExact(byRow, rhs)
	y, oky := solveExact(byCol, cB)
	if !okx || !oky {
		return cert, fmt.Errorf("basis matrix is singular")
	}

	obj := new(big.Rat)
	for k, j := range basic {
		obj.Add(obj, new(big.Rat).Mul(rat(c[j]), xB[k]))
		if v := ratFloat(xB[k]); j < n {
			cert.point = math.Max(cert.point, math.Abs(sol.X[j]-v)/math.Max(1, math.Abs(v)))
		}
		if d := new(big.Rat).Sub(rat(lo[j]), xB[k]); d.Sign() > 0 {
			cert.primal.note(ratFloat(d), "column %d = %s is below its lower bound %g", j, xB[k].FloatString(9), lo[j])
		}
		if math.IsInf(up[j], 1) {
			continue
		}
		if d := new(big.Rat).Sub(xB[k], rat(up[j])); d.Sign() > 0 {
			cert.primal.note(ratFloat(d), "column %d = %s is above its upper bound %g", j, xB[k].FloatString(9), up[j])
		}
	}
	yf := make([]float64, m)
	for i := range y {
		yf[i] = ratFloat(y[i])
	}
	for j := range x {
		if inB[j] {
			continue
		}
		if c[j] != 0 && x[j] != 0 {
			obj.Add(obj, new(big.Rat).Mul(rat(c[j]), rat(x[j])))
		}
		if j < n {
			cert.point = math.Max(cert.point, math.Abs(sol.X[j]-x[j])/math.Max(1, math.Abs(x[j])))
		}
		if d := reducedCost(c[j], cols[j], y, yf); lo[j] < up[j] && x[j] == up[j] && d < 0 {
			cert.dual.note(-d, "column %d at its upper bound has reduced cost %g", j, d)
		} else if lo[j] < up[j] && x[j] == lo[j] && d > 0 {
			cert.dual.note(d, "column %d at its lower bound has reduced cost %g", j, d)
		}
	}
	cert.objective = math.Abs(ratFloat(obj.Sub(obj, rat(sol.Objective))))
	return cert, nil
}

// reducedCost returns c − y·a for column a with objective coefficient c: in
// float64 from yf, y rounded, where roundoff cannot flip its sign, else from
// the exact y. Each of the len(a)+2 roundings errs by at most one unit
// roundoff of the magnitude summed; the bound is four times their sum.
func reducedCost(c float64, a []entry, y []*big.Rat, yf []float64) float64 {
	d, mag := c, math.Abs(c)
	for _, e := range a {
		t := yf[e.row] * e.v
		d, mag = d-t, mag+math.Abs(t)
	}
	if math.Abs(d) > 4*float64(len(a)+2)*0x1p-53*mag+0x1p-1000 {
		return d
	}
	exact := rat(c)
	for _, e := range a {
		exact.Sub(exact, new(big.Rat).Mul(y[e.row], rat(e.v)))
	}
	return ratFloat(exact)
}

// farkasGap measures a Farkas ray y for p under the given bounds exactly: by
// how much y·b lies below every value y·(Ax ± s) takes over the box of the
// variables and slacks, positive only when that proves p infeasible. Entries
// within 1e-9 of the largest count as zero: they are a basis inverse's
// roundoff, and any sign opens an unbounded slack's range. Whatever y the
// check ends with, a positive gap is a proof.
func farkasGap(p *lp.Problem, lower, upper, y []float64) violation {
	cols, _, lo, up := equalityForm(p, lower, upper)
	top := math.Max(slices.Max(y), -slices.Min(y))
	ys, gap := make([]*big.Rat, len(y)), new(big.Rat) // gap: least of y·(Ax ± s), less y·b
	for r, row := range p.Constraints {
		if ys[r] = new(big.Rat); math.Abs(y[r]) > 1e-9*top {
			ys[r] = rat(y[r])
			gap.Sub(gap, new(big.Rat).Mul(ys[r], rat(row.RHS)))
		}
	}
	for j, col := range cols {
		g := new(big.Rat)
		for _, e := range col {
			g.Add(g, new(big.Rat).Mul(ys[e.row], rat(e.v)))
		}
		at := lo[j] // where g·x_j is least
		if g.Sign() < 0 {
			at = up[j]
		}
		if g.Sign() != 0 && math.IsInf(at, 0) {
			return violation{math.Inf(-1), fmt.Sprintf("column %d takes y·(Ax ± s) to -Inf", j)}
		} else if g.Sign() != 0 {
			gap.Add(gap, g.Mul(g, rat(at)))
		}
	}
	return violation{ratFloat(gap), "y·b is not below the least value of y·(Ax ± s)"}
}

// solveExact solves Σ_k eq[i][k]·z_k = rhs[i] by Gauss–Jordan elimination,
// consuming both; each entry is a nonzero value of its own. Each step scales
// the equation with the fewest unknowns left — a singleton whenever there is
// one, so a triangular system costs a substitution per unknown — to a unit
// coefficient on its lowest-numbered unknown, and eliminates that unknown
// from the others. It reports false when the system is singular.
func solveExact(eq []map[int]*big.Rat, rhs []*big.Rat) ([]*big.Rat, bool) {
	z, done := make([]*big.Rat, len(eq)), make([]bool, len(eq))
	for range eq {
		p := -1
		for i := range eq {
			if !done[i] && (p < 0 || len(eq[i]) < len(eq[p])) {
				p = i
			}
		}
		k := len(eq)
		for c := range eq[p] {
			k = min(k, c)
		}
		if k == len(eq) {
			return nil, false
		}
		done[p], z[k] = true, rhs[p] // rhs[p] becomes z_k once eq[p] is k alone
		inv, t := new(big.Rat).Inv(eq[p][k]), new(big.Rat)
		for _, v := range eq[p] {
			v.Mul(v, inv)
		}
		rhs[p].Mul(rhs[p], inv)
		for i := range eq {
			if f, ok := eq[i][k]; ok && i != p {
				for c, v := range eq[p] {
					if w, ok := eq[i][c]; !ok {
						eq[i][c] = new(big.Rat).Neg(t.Mul(f, v))
					} else if c != k && w.Sub(w, t.Mul(f, v)).Sign() == 0 {
						delete(eq[i], c)
					}
				}
				rhs[i].Sub(rhs[i], t.Mul(f, rhs[p]))
				delete(eq[i], k)
			}
		}
	}
	return z, true
}

func rat(v float64) *big.Rat {
	if i := int64(v); float64(i) == v {
		return new(big.Rat).SetInt64(i) // no normalization to pay for
	}
	return new(big.Rat).SetFloat64(v)
}

func ratFloat(v *big.Rat) float64 {
	f, _ := v.Float64()
	return f
}
