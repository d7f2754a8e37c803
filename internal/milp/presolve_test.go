package milp

import (
	"math"
	"math/rand"
	"testing"

	"insitu/internal/lp"
	"insitu/internal/obs"
)

// TestPresolveTightensKnapsack: in 3x + 4y <= 5 over integers in [0,5],
// activity reasoning caps x at 1 and y at 1.
func TestPresolveTightensKnapsack(t *testing.T) {
	p := NewProblem(&lp.Problem{})
	addIntVar(p, 1, 0, 5, "x")
	addIntVar(p, 1, 0, 5, "y")
	p.LP.AddConstraint([]int{0, 1}, []float64{3, 4}, lp.LE, 5, "cap")
	lower := append([]float64(nil), p.LP.Lower...)
	upper := append([]float64(nil), p.LP.Upper...)
	tightened, infeasible := presolveBounds(p, lower, upper)
	if infeasible {
		t.Fatal("feasible instance reported infeasible")
	}
	if tightened != 2 {
		t.Fatalf("tightened %d bounds, want 2", tightened)
	}
	if upper[0] != 1 || upper[1] != 1 {
		t.Fatalf("upper bounds %v, want [1 1]", upper)
	}
}

// TestPresolveGERaisesLower: x + y >= 7 with y <= 3 forces x >= 4.
func TestPresolveGERaisesLower(t *testing.T) {
	p := NewProblem(&lp.Problem{})
	addIntVar(p, 1, 0, 9, "x")
	addIntVar(p, 1, 0, 3, "y")
	p.LP.AddConstraint([]int{0, 1}, []float64{1, 1}, lp.GE, 7, "demand")
	lower := append([]float64(nil), p.LP.Lower...)
	upper := append([]float64(nil), p.LP.Upper...)
	if _, infeasible := presolveBounds(p, lower, upper); infeasible {
		t.Fatal("feasible instance reported infeasible")
	}
	if lower[0] != 4 {
		t.Fatalf("lower[x] = %g, want 4", lower[0])
	}
}

// TestPresolveDetectsInfeasible: a row unsatisfiable at minimum activity.
func TestPresolveDetectsInfeasible(t *testing.T) {
	p := NewProblem(&lp.Problem{})
	addIntVar(p, 1, 0, 1, "x")
	addIntVar(p, 1, 0, 1, "y")
	p.LP.AddConstraint([]int{0, 1}, []float64{1, 1}, lp.GE, 3, "impossible")
	lower := append([]float64(nil), p.LP.Lower...)
	upper := append([]float64(nil), p.LP.Upper...)
	if _, infeasible := presolveBounds(p, lower, upper); !infeasible {
		t.Fatal("unsatisfiable row not detected")
	}
	// The full solve must agree at every width, before any LP is solved:
	// the flight stream is just start -> end.
	for _, w := range widths {
		var kinds []string
		sol, err := Solve(p, Options{Workers: w, Progress: func(rec obs.SolveProgress) {
			kinds = append(kinds, rec.Kind)
		}})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if sol.Status != Infeasible || sol.HasX {
			t.Fatalf("workers=%d: status %v (HasX %v), want infeasible", w, sol.Status, sol.HasX)
		}
		if sol.Stats.Nodes != 0 || sol.Stats.Relaxations != 0 {
			t.Fatalf("workers=%d: presolve-proven root still solved %d nodes / %d relaxations",
				w, sol.Stats.Nodes, sol.Stats.Relaxations)
		}
		if len(kinds) != 2 || kinds[0] != obs.SolveProgStart || kinds[1] != obs.SolveProgEnd {
			t.Fatalf("workers=%d: progress stream %v, want [start end]", w, kinds)
		}
	}
}

// TestPresolveSkipsUnboundedColumns: a continuous variable with an infinite
// upper bound and a negative coefficient makes the row's minimum activity
// unbounded below, so nothing may be inferred about the other columns — but
// the unbounded column itself can still pick up a bound from the rest.
func TestPresolveSkipsUnboundedColumns(t *testing.T) {
	p := NewProblem(&lp.Problem{})
	addIntVar(p, 1, 0, 9, "x")
	p.AddContVar(1, math.Inf(1), "s")
	// x - s <= 2: with s free upward, x is NOT bounded by this row; s gains
	// s >= x_lo - 2 which is below 0, so no tightening at all.
	p.LP.AddConstraint([]int{0, 1}, []float64{1, -1}, lp.LE, 2, "slacky")
	lower := append([]float64(nil), p.LP.Lower...)
	upper := append([]float64(nil), p.LP.Upper...)
	tightened, infeasible := presolveBounds(p, lower, upper)
	if infeasible || tightened != 0 {
		t.Fatalf("tightened=%d infeasible=%v, want 0/false", tightened, infeasible)
	}
	if upper[0] != 9 || !math.IsInf(upper[1], 1) {
		t.Fatalf("bounds moved: upper=%v", upper)
	}
}

// TestPresolvePreservesOptimum property: the root presolve (which every
// Solve runs) only removes points no feasible solution uses, so at every
// width Solve agrees with exhaustive enumeration over the untightened box.
func TestPresolvePreservesOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(1313))
	tightened := 0
	for trial := 0; trial < 80; trial++ {
		p := randParallelMILP(rng)
		want, err := BruteForce(p)
		if err != nil {
			t.Fatalf("trial %d: brute force: %v", trial, err)
		}
		for _, w := range widths {
			got, err := Solve(p, Options{Workers: w})
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, w, err)
			}
			if got.Status != want.Status {
				t.Fatalf("trial %d workers=%d: presolve changed status %v -> %v", trial, w, want.Status, got.Status)
			}
			if got.Status == Optimal && math.Abs(got.Objective-want.Objective) > 1e-9*(1+math.Abs(want.Objective)) {
				t.Fatalf("trial %d workers=%d: presolve changed objective %g -> %g", trial, w, want.Objective, got.Objective)
			}
			tightened += got.Stats.PresolveTightened
		}
	}
	if tightened == 0 {
		t.Fatal("presolve tightened nothing on the whole corpus; the comparison is vacuous")
	}
}
