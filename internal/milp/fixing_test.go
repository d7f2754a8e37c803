package milp

import (
	"math"
	"testing"

	"insitu/internal/lp"
)

// Reduced-cost fixing tests. The differential corpora in solvercheck hold the
// search to brute force on hundreds of random models; the cases here pin the
// two kinds of column the rule must leave alone, each on an instance where
// fixing it anyway returns a worse optimum, and the bookkeeping around it.

// TestReducedCostFixingShrinksTheBox: on a knapsack that needs real branching
// the search fixes columns, reports how many in Stats (and so on the end
// flight record, see TestEndRecordEqualsStats), and finds the optimum of a
// search that fixes nothing it could have enumerated (brute force), at every
// width.
func TestReducedCostFixingShrinksTheBox(t *testing.T) {
	p := hardInstance(5, 14)
	want, err := BruteForce(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range widths {
		sol, err := Solve(p, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal || math.Abs(sol.Objective-want.Objective) > 1e-9 {
			t.Fatalf("workers %d: %v at %g, brute force %g", w, sol.Status, sol.Objective, want.Objective)
		}
		if sol.Stats.ReducedCostFixed == 0 || sol.Stats.ReducedCostFixed > p.LP.NumVars() {
			t.Fatalf("workers %d: %d of %d columns fixed by reduced cost", w, sol.Stats.ReducedCostFixed, p.LP.NumVars())
		}
	}
}

// TestReducedCostFixingLeavesContinuousColumns: the optimum needs the
// continuous column at 0.25, a quarter of the move its root reduced cost
// prices, so the unit-step argument that fixes integer columns does not hold
// for it. Fixing it at zero returns 6 instead of 6.5.
func TestReducedCostFixingLeavesContinuousColumns(t *testing.T) {
	p := NewProblem(&lp.Problem{})
	for _, v := range []float64{2, 2, 2, 4} {
		p.AddBinVar(v, "")
	}
	c := p.AddContVar(-6, 1, "c")
	p.LP.AddConstraint([]int{0, 1, 2, 3, c}, []float64{5, 1, 4, 5, -4}, lp.LE, 9, "cap")
	for _, w := range widths {
		sol, err := Solve(p, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal || math.Abs(sol.Objective-6.5) > 1e-9 || math.Abs(sol.X[c]-0.25) > 1e-9 {
			t.Fatalf("workers %d: %v at %g with c = %g, want 6.5 with c = 0.25", w, sol.Status, sol.Objective, sol.X[c])
		}
	}
}

// TestReducedCostFixingLeavesFractionalBounds: an integer column resting on
// a fractional bound is not at an integer point, so "a unit away at least"
// is false for it — the nearest integer is half a unit off. Fixing x and y at
// 0.5 loses the optimum (3, 2).
func TestReducedCostFixingLeavesFractionalBounds(t *testing.T) {
	p := NewProblem(&lp.Problem{})
	x := addIntVar(p, 5, 0.5, 3.5, "x")
	y := addIntVar(p, 2, 0.5, 2.5, "y")
	p.LP.AddConstraint([]int{x, y}, []float64{3, 3}, lp.LE, 15, "cap")
	for _, w := range widths {
		sol, err := Solve(p, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal || sol.Objective != 19 || sol.X[x] != 3 || sol.X[y] != 2 {
			t.Fatalf("workers %d: %v at %g, X = %v, want 19 at (3, 2)", w, sol.Status, sol.Objective, sol.X)
		}
	}
}

// TestStatsAddSumsPricingAndFixing: the counters this search layer gained
// accumulate like the rest.
func TestStatsAddSumsPricingAndFixing(t *testing.T) {
	a := Stats{PricedColumns: 10, FullPricingPasses: 2, ReducedCostFixed: 3}
	a.Add(&Stats{PricedColumns: 5, FullPricingPasses: 1, ReducedCostFixed: 4})
	if a.PricedColumns != 15 || a.FullPricingPasses != 3 || a.ReducedCostFixed != 7 {
		t.Fatalf("after Add: %+v", a)
	}
}
