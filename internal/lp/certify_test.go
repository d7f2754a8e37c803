package lp

import (
	"math"
	"math/rand"
	"testing"
)

// repairCapacityRef is the capacity sum as certifyInfeasible made it before it
// read the ratio test's pivot row back: every nonbasic column dotted with rho
// afresh, fixed ones included.
func repairCapacityRef(rv *revised, rho []float64, above bool) float64 {
	capacity := 0.0
	for j := 0; j < rv.width; j++ {
		if rv.inBasis[j] {
			continue
		}
		alpha := rv.colDot(j, rho)
		if alpha == 0 {
			continue
		}
		repairing := false
		if !above {
			repairing = (!rv.atUpper[j] && alpha < 0) || (rv.atUpper[j] && alpha > 0)
		} else {
			repairing = (!rv.atUpper[j] && alpha > 0) || (rv.atUpper[j] && alpha < 0)
		}
		if !repairing {
			continue
		}
		span := rv.up[j] - rv.lo[j]
		if math.IsInf(span, 1) {
			return span
		}
		capacity += math.Abs(alpha) * span
	}
	return capacity
}

// TestCertifyMatchesFullRedot drives the dual simplex of warm re-solves on
// multiple-choice knapsacks, with branching, fixing and sliver bounds (a span
// in (0, eps]), and wherever it ends in certifyInfeasible holds the capacity
// it summed to the full re-dot's bit for bit.
func TestCertifyMatchesFullRedot(t *testing.T) {
	rng := rand.New(rand.NewSource(2055))
	var certified, refused, slivers int
	for trial := 0; trial < 160; trial++ {
		var p *Problem
		if trial%2 == 0 {
			p = randChoiceKnapsack(rng, 1+rng.Intn(10), 1+rng.Intn(6))
		} else {
			p = campaignLP(rng, 3+rng.Intn(30), trial%4 == 1)
		}
		s, err := NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		lower := append([]float64(nil), p.Lower...)
		upper := append([]float64(nil), p.Upper...)
		for step := 0; step < 16; step++ {
			if sol := s.SolveCold(lower, upper); sol.Status != Optimal {
				copy(lower, p.Lower)
				copy(upper, p.Upper)
				s.SolveCold(lower, upper)
			}
			perturbBounds(rng, p, lower, upper)
			if rng.Intn(3) == 0 {
				j := rng.Intn(p.NumVars())
				lower[j], upper[j] = 0, eps*rng.Float64()
			}
			rv := s.state()
			rv.iters, rv.farkasRow = 0, -1
			rv.applyBounds(lower, upper)
			rv.computeXB()
			ok, infeasible := rv.dualSimplex()
			r := rv.farkasRow
			if r < 0 {
				continue
			}
			above := rv.xB[r] > rv.up[rv.basis[r]]
			got, want := rv.repairCapacity(rv.rho, above), repairCapacityRef(rv, rv.rho, above)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d, step %d: capacity %v, full re-dot %v", trial, step, got, want)
			}
			for j := 0; j < rv.width; j++ {
				if span := rv.up[j] - rv.lo[j]; !rv.inBasis[j] && span > 0 && span <= eps {
					slivers++
				}
			}
			if ok && infeasible {
				certified++
			} else {
				refused++
			}
		}
	}
	t.Logf("%d certified, %d refused, %d sliver columns at a certificate", certified, refused, slivers)
	if certified < 100 || slivers < 20 {
		t.Fatalf("%d certified, %d refused, %d sliver columns: the corpus no longer reaches every path", certified, refused, slivers)
	}
}
