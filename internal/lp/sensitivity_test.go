package lp

import (
	"math"
	"math/rand"
	"testing"
)

// TestReducedCostsSimple2D checks the textbook signs: at the optimum of
// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, variable x is basic at 4 (rc 0)
// and y is nonbasic at its lower bound with rc = 2 - 3 = -1 (entering y would
// displace x at a rate of 1 on the binding first row).
func TestReducedCostsSimple2D(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(3, 0, Inf, "x")
	y := p.AddVar(2, 0, Inf, "y")
	p.AddConstraint([]int{x, y}, []float64{1, 1}, LE, 4, "r1")
	p.AddConstraint([]int{x, y}, []float64{1, 3}, LE, 6, "r2")
	sol := solveOK(t, p)
	approx(t, sol.ReducedCosts[x], 0, 1e-9, "rc(x)")
	approx(t, sol.ReducedCosts[y], -1, 1e-9, "rc(y)")
}

// TestSlacksAndActivity pins the activity/slack convention on a mixed-sense
// problem: binding rows report zero slack, loose rows their distance to the
// RHS on the feasible side.
func TestSlacksAndActivity(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(1, 0, Inf, "x")
	y := p.AddVar(1, 0, Inf, "y")
	p.AddConstraint([]int{x, y}, []float64{1, 1}, LE, 10, "cap")   // binding
	p.AddConstraint([]int{x}, []float64{1}, GE, 2, "floor")        // loose at optimum
	p.AddConstraint([]int{x, y}, []float64{1, -1}, EQ, 4, "split") // x - y = 4
	sol := solveOK(t, p)
	// Optimum: x + y = 10 with x - y = 4 -> x = 7, y = 3.
	approx(t, sol.X[x], 7, 1e-8, "x")
	approx(t, sol.RowActivity[0], 10, 1e-8, "activity(cap)")
	approx(t, sol.Slacks[0], 0, 1e-8, "slack(cap)")
	approx(t, sol.RowActivity[1], 7, 1e-8, "activity(floor)")
	approx(t, sol.Slacks[1], 5, 1e-8, "slack(floor)")
	approx(t, sol.Slacks[2], 0, 1e-8, "slack(split)")
}

// TestReducedCostPredictsEntry verifies the economic meaning of a nonbasic
// reduced cost: raising the variable's objective coefficient past the
// breakeven point |rc| must change the optimal basis and strictly improve the
// objective, while staying below it must not.
func TestReducedCostPredictsEntry(t *testing.T) {
	build := func(cy float64) *Problem {
		p := &Problem{}
		x := p.AddVar(3, 0, Inf, "x")
		y := p.AddVar(cy, 0, Inf, "y")
		p.AddConstraint([]int{x, y}, []float64{1, 1}, LE, 4, "r1")
		p.AddConstraint([]int{x, y}, []float64{1, 3}, LE, 6, "r2")
		return p
	}
	base := solveOK(t, build(2))
	rc := base.ReducedCosts[1] // -1
	if rc >= 0 {
		t.Fatalf("rc(y) = %g, want negative", rc)
	}
	below := solveOK(t, build(2-rc-0.5)) // cy = 2.5, still below breakeven 3
	approx(t, below.Objective, base.Objective, 1e-8, "objective below breakeven")
	above := solveOK(t, build(2-rc+0.5)) // cy = 3.5, past breakeven
	if above.Objective <= base.Objective+1e-9 {
		t.Fatalf("objective %g did not improve past breakeven (base %g)", above.Objective, base.Objective)
	}
	if above.X[1] <= 1e-9 {
		t.Fatalf("y = %g, want basic after breakeven", above.X[1])
	}
}

// TestReducedCostAtUpperBound checks the sign flip for variables resting at
// their upper bound: rc >= 0 (pushing further up would improve, but the bound
// blocks it).
func TestReducedCostAtUpperBound(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(5, 0, 2, "x")
	y := p.AddVar(1, 0, Inf, "y")
	p.AddConstraint([]int{x, y}, []float64{1, 1}, LE, 10, "cap")
	sol := solveOK(t, p)
	approx(t, sol.X[x], 2, 1e-9, "x at upper")
	if sol.ReducedCosts[x] < 4-1e-9 {
		t.Fatalf("rc(x) = %g, want 4 (c_x - dual(cap) = 5 - 1)", sol.ReducedCosts[x])
	}
}

// TestSensitivityFieldsConsistentRandom cross-checks the new fields on random
// bounded LPs: slacks must match a direct recomputation from X, basic
// variables must carry zero reduced cost, and every (variable, rc) pair must
// satisfy the optimality sign conventions.
func TestSensitivityFieldsConsistentRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		nv := 2 + rng.Intn(4)
		p := &Problem{}
		for j := 0; j < nv; j++ {
			p.AddVar(rng.Float64()*4-1, 0, 1+rng.Float64()*3, "")
		}
		nr := 1 + rng.Intn(4)
		for r := 0; r < nr; r++ {
			idx := make([]int, 0, nv)
			coef := make([]float64, 0, nv)
			for j := 0; j < nv; j++ {
				idx = append(idx, j)
				coef = append(coef, rng.Float64()*2)
			}
			p.AddConstraint(idx, coef, LE, 1+rng.Float64()*6, "")
		}
		sol, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			continue
		}
		if len(sol.ReducedCosts) != nv || len(sol.Slacks) != nr || len(sol.RowActivity) != nr {
			t.Fatalf("trial %d: field lengths %d/%d/%d for %d vars %d rows",
				trial, len(sol.ReducedCosts), len(sol.Slacks), len(sol.RowActivity), nv, nr)
		}
		for r, c := range p.Constraints {
			act := 0.0
			for k, j := range c.Idx {
				act += c.Coef[k] * sol.X[j]
			}
			approx(t, sol.RowActivity[r], act, 1e-6, "activity recompute")
			if sol.Slacks[r] < -1e-7 {
				t.Fatalf("trial %d row %d: negative slack %g", trial, r, sol.Slacks[r])
			}
		}
		for j, rc := range sol.ReducedCosts {
			interior := sol.X[j] > p.Lower[j]+1e-7 && sol.X[j] < p.Upper[j]-1e-7
			if interior && math.Abs(rc) > 1e-6 {
				t.Fatalf("trial %d var %d: interior value %g with rc %g", trial, j, sol.X[j], rc)
			}
		}
	}
}
