package lp

import (
	"math"
	"math/rand"
	"testing"
)

// solveReduced solves p cold on a Solver and returns the optimal solution with
// the reduced costs Solver.ReducedCosts prices at its basis.
func solveReduced(t *testing.T, p *Problem) (*Solution, []float64) {
	t.Helper()
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	sol := s.SolveCold(p.Lower, p.Upper)
	d := make([]float64, p.NumVars())
	if !s.ReducedCosts(d, make([]bool, len(d))) {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	return sol, d
}

// activity returns a_r·x for each row of p.
func activity(p *Problem, x []float64) []float64 {
	act := make([]float64, len(p.Constraints))
	for r, c := range p.Constraints {
		for k, j := range c.Idx {
			act[r] += c.Coef[k] * x[j]
		}
	}
	return act
}

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
	_, rc := solveReduced(t, p)
	approx(t, rc[x], 0, 1e-9, "rc(x)")
	approx(t, rc[y], -1, 1e-9, "rc(y)")
}

// TestSlacksAndActivity pins the optimum of a mixed-sense problem through its
// rows: the binding ones sit at their RHS, the loose one its distance away on
// the feasible side.
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
	act := activity(p, sol.X)
	approx(t, act[0], 10, 1e-8, "activity(cap)")
	approx(t, act[1], 7, 1e-8, "activity(floor)")
	approx(t, act[1]-p.Constraints[1].RHS, 5, 1e-8, "slack(floor)")
	approx(t, act[2], 4, 1e-8, "activity(split)")
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
	base, d := solveReduced(t, build(2))
	rc := d[1] // -1
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
	sol, rc := solveReduced(t, p)
	approx(t, sol.X[x], 2, 1e-9, "x at upper")
	if rc[x] < 4-1e-9 {
		t.Fatalf("rc(x) = %g, want 4 (c_x - dual(cap) = 5 - 1)", rc[x])
	}
}

// TestSensitivityFieldsConsistentRandom cross-checks the optimum on random
// bounded LPs: every row has nonnegative slack at X, and a variable strictly
// inside its bounds carries zero reduced cost.
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
		s, err := NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		sol := s.SolveCold(p.Lower, p.Upper)
		if sol.Status != Optimal {
			continue
		}
		d := make([]float64, nv)
		s.ReducedCosts(d, make([]bool, nv))
		for r, act := range activity(p, sol.X) {
			if slack := p.Constraints[r].RHS - act; slack < -1e-7 {
				t.Fatalf("trial %d row %d: negative slack %g", trial, r, slack)
			}
		}
		for j, rc := range d {
			interior := sol.X[j] > p.Lower[j]+1e-7 && sol.X[j] < p.Upper[j]-1e-7
			if interior && math.Abs(rc) > 1e-6 {
				t.Fatalf("trial %d var %d: interior value %g with rc %g", trial, j, sol.X[j], rc)
			}
		}
	}
}

// TestRowScale pins the factor each row is divided by inside the solver.
func TestRowScale(t *testing.T) {
	for _, tc := range []struct {
		coef []float64
		rhs  float64
		want float64
	}{
		{[]float64{3 << 30, 5 << 30}, 12 << 30, 8 << 30}, // a memory row in bytes
		{[]float64{0.5, 7}, 600, 512},                    // a time row in seconds
		{[]float64{1, 1, 1}, 1, 1},                       // a one-mode row
		{[]float64{1, -1}, -0.75, 0.5},                   // the RHS's magnitude
		{[]float64{3, -5}, 0, 4},                         // no RHS: the largest coefficient
		{nil, 0, 1},                                      // an empty row
		{[]float64{0x1p1000}, 0x1p-100, 1},               // scaled, the row would overflow
		{[]float64{0x1p-1040}, 0x1p-1030, 1},             // 1/factor would overflow
	} {
		if got := rowScale(Constraint{Coef: tc.coef, RHS: tc.rhs}); got != tc.want {
			t.Errorf("rowScale(%v ≤ %g) = %g, want %g", tc.coef, tc.rhs, got, tc.want)
		}
	}
}

// TestRowUnitsLeaveTheSolveUnchanged restates one row of random LPs in other
// units, multiplying it by 2^k: the solver sees the same scaled rows, so the
// point and the iteration count come out bit for bit, and the row's dual and
// Farkas entry are the original ones divided by 2^k exactly. (Duals below
// FeasTol read zero, on either side.)
func TestRowUnitsLeaveTheSolveUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	optimal, rays := 0, 0
	for trial := 0; trial < 300; trial++ {
		p := randBoundedProblem(rng)
		q := p.Clone()
		r, unit := rng.Intn(len(q.Constraints)), math.Ldexp(1, rng.Intn(81)-40)
		for k := range q.Constraints[r].Coef {
			q.Constraints[r].Coef[k] *= unit
		}
		q.Constraints[r].RHS *= unit
		a, b := coldVerdict(t, p), coldVerdict(t, q)
		if a.Status != b.Status || a.Iters != b.Iters || a.Objective != b.Objective {
			t.Fatalf("trial %d: row %d ×%g: %v/%d/%g, restated %v/%d/%g", trial, r, unit,
				a.Status, a.Iters, a.Objective, b.Status, b.Iters, b.Objective)
		}
		for j := range a.X {
			if a.X[j] != b.X[j] {
				t.Fatalf("trial %d: x[%d] = %g, restated %g", trial, j, a.X[j], b.X[j])
			}
		}
		switch ya, yb := a.ray, b.ray; {
		case a.Status == Infeasible && ya != nil:
			if yb[r] != ya[r]/unit {
				t.Fatalf("trial %d: Farkas entry %g, restated ×%g %g", trial, ya[r], unit, yb[r])
			}
			rays++
		case a.Status == Optimal:
			da, db := a.Duals[r], b.Duals[r]
			zero := (da == 0 || math.Abs(da/unit) < FeasTol) && (db == 0 || math.Abs(db*unit) < FeasTol)
			if db != da/unit && !zero && !(math.IsNaN(da) && math.IsNaN(db)) {
				t.Fatalf("trial %d: dual %g, restated ×%g %g", trial, da, unit, db)
			}
			optimal++
		}
	}
	if optimal < 100 || rays < 10 {
		t.Fatalf("only %d optimal and %d infeasible instances", optimal, rays)
	}
}

// solvedLP is a cold solve's verdict with its Farkas ray, nil unless the
// solver has one.
type solvedLP struct {
	*Solution
	ray []float64
}

// coldVerdict solves p cold on a non-lean Solver.
func coldVerdict(t *testing.T, p *Problem) solvedLP {
	t.Helper()
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	out := solvedLP{Solution: s.SolveCold(p.Lower, p.Upper)}
	if y := make([]float64, len(p.Constraints)); s.FarkasRay(y) {
		out.ray = y
	}
	return out
}
