package lp

import (
	"math"
	"testing"
)

// Degeneracy and bounded-variable edge cases. The simplex core relies on
// Bland's rule to escape cycling and on the implicit-bound machinery for
// bound flips in both directions; each test here pins one of those paths
// with a hand-checkable instance. The two instances wide enough for it are
// also solved with the pricing working set shrunk below their column count,
// so the refill path meets the same degeneracy.

// solveAllWays solves p the production way and on working sets of one and two
// columns (skipping a set size that would still price the whole model).
func solveAllWays(t *testing.T, p *Problem) map[string]*Solution {
	t.Helper()
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*Solution{"production pricing": sol}
	for c, name := range map[int]string{1: "working set of 1", 2: "working set of 2"} {
		if small, _ := solveWithSet(p, c); small != nil {
			out[name] = small
		}
	}
	if len(out) == 1 {
		t.Fatal("instance too narrow to select a working set on")
	}
	return out
}

// TestBealeCyclingInstance solves Beale's classic cycling example, on which
// pure Dantzig pricing with a naive tie-break cycles forever. The solver
// must terminate (Bland fallback) at the known optimum 1/20.
func TestBealeCyclingInstance(t *testing.T) {
	p := &Problem{}
	x1 := p.AddVar(0.75, 0, Inf, "x1")
	x2 := p.AddVar(-150, 0, Inf, "x2")
	x3 := p.AddVar(0.02, 0, Inf, "x3")
	x4 := p.AddVar(-6, 0, Inf, "x4")
	p.AddConstraint([]int{x1, x2, x3, x4}, []float64{0.25, -60, -0.04, 9}, LE, 0, "c1")
	p.AddConstraint([]int{x1, x2, x3, x4}, []float64{0.5, -90, -0.02, 3}, LE, 0, "c2")
	p.AddConstraint([]int{x3}, []float64{1}, LE, 1, "c3")

	for how, sol := range solveAllWays(t, p) {
		if sol.Status != Optimal {
			t.Fatalf("%s: status = %v, want optimal", how, sol.Status)
		}
		if math.Abs(sol.Objective-0.05) > 1e-9 {
			t.Errorf("%s: objective = %g, want 0.05", how, sol.Objective)
		}
		if math.Abs(sol.X[x1]-0.04) > 1e-9 || math.Abs(sol.X[x3]-1) > 1e-9 {
			t.Errorf("%s: X = %v, want x1=0.04, x3=1", how, sol.X)
		}
		if v := p.FirstViolation(sol.X, 1e-9); v != "" {
			t.Errorf("%s: optimal point infeasible: %s", how, v)
		}
	}
}

// TestBoundFlipToUpper drives a nonbasic variable all the way to its finite
// upper bound without any basic variable blocking — the flip branch of the
// ratio test, which never pivots.
func TestBoundFlipToUpper(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(3, 0, 3, "x")
	y := p.AddVar(2, 0, 3, "y")
	p.AddConstraint([]int{x, y}, []float64{1, 2}, LE, 4, "cap")

	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if math.Abs(sol.Objective-10) > 1e-9 {
		t.Errorf("objective = %g, want 10", sol.Objective)
	}
	if sol.X[x] != 3 || math.Abs(sol.X[y]-0.5) > 1e-9 {
		t.Errorf("X = %v, want x=3 (at upper), y=0.5", sol.X)
	}
}

// TestEntryFromUpperBound forces phase 1 to park a variable at its upper
// bound and phase 2 to re-enter it downward (the dir = -1 pricing branch):
// z must decrease from 4 to 2 once w saturates.
func TestEntryFromUpperBound(t *testing.T) {
	p := &Problem{}
	z := p.AddVar(-10, 0, 4, "z")
	w := p.AddVar(0, 0, 3, "w")
	p.AddConstraint([]int{z, w}, []float64{1, 1}, GE, 5, "cover")

	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if math.Abs(sol.Objective-(-20)) > 1e-9 {
		t.Errorf("objective = %g, want -20", sol.Objective)
	}
	if math.Abs(sol.X[z]-2) > 1e-9 || math.Abs(sol.X[w]-3) > 1e-9 {
		t.Errorf("X = %v, want z=2, w=3", sol.X)
	}
}

// TestFixedVariableEquality exercises span-zero bounds (lo == up) combined
// with an equality row — both the variable and the row are degenerate.
func TestFixedVariableEquality(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(5, 2, 2, "x")
	y := p.AddVar(1, 0, 10, "y")
	p.AddConstraint([]int{x, y}, []float64{1, 1}, EQ, 6, "sum")

	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if sol.X[x] != 2 || math.Abs(sol.X[y]-4) > 1e-9 {
		t.Errorf("X = %v, want x=2 (fixed), y=4", sol.X)
	}
	if math.Abs(sol.Objective-14) > 1e-9 {
		t.Errorf("objective = %g, want 14", sol.Objective)
	}
}

// TestBasicArtificialStaysClamped is the regression pin for a bug found by
// the solvercheck differential harness (generator seed 86): when phase 1
// ends with an artificial still basic at value zero and no resting-at-lower
// column can host the drive-out swap, the artificial used to keep its +Inf
// upper bound, so phase 2 could grow it — silently relaxing the underlying
// equality row and reporting an infeasible point as Optimal. The artificial
// must stay clamped at zero.
func TestBasicArtificialStaysClamped(t *testing.T) {
	p := &Problem{}
	lo := []float64{0, 3, 1, 3, 3, 1, 0}
	up := []float64{3, 7, 7, 6, 4, 7, 8}
	obj := []float64{-4, -3, -2, -4, -5, -2, -3}
	for j := range obj {
		p.AddVar(obj[j], lo[j], up[j], "")
	}
	rows := []struct {
		coef  []float64
		sense Sense
		rhs   float64
	}{
		{[]float64{0, 0, -1, 0, 0, 0, 0}, EQ, -4},
		{[]float64{3, 0, 0, 1, 1, 2, -4}, GE, 16},
		{[]float64{-3, 4, -2, -4, 1, 0, -1}, LE, -15},
		{[]float64{1, 0, 0, 0, 0, 0, 0}, EQ, 3},
		{[]float64{-1, 1, 0, 3, 0, 0, 1}, LE, 23},
		{[]float64{4, 0, 4, 3, -3, 0, -3}, LE, 30},
	}
	idx := []int{0, 1, 2, 3, 4, 5, 6}
	for _, row := range rows {
		p.AddConstraint(idx, row.coef, row.sense, row.rhs, "")
	}

	for how, sol := range solveAllWays(t, p) {
		if sol.Status != Optimal {
			t.Fatalf("%s: status = %v, want optimal", how, sol.Status)
		}
		if v := p.FirstViolation(sol.X, 1e-7); v != "" {
			t.Fatalf("%s: optimal point infeasible: %s (X = %v)", how, v, sol.X)
		}
		// The two equality rows pin x2 = 4 and x0 = 3 exactly.
		if sol.X[0] != 3 || sol.X[2] != 4 {
			t.Errorf("%s: equality rows not honored: x0 = %g (want 3), x2 = %g (want 4)", how, sol.X[0], sol.X[2])
		}
		if math.Abs(sol.Objective-p.Eval(sol.X)) > 1e-9 {
			t.Errorf("%s: objective %g does not match c·x = %g", how, sol.Objective, p.Eval(sol.X))
		}
	}
}
