package lp

import (
	"math"
	"math/rand"
	"testing"
)

// Working-set pricing tests. The production rule sizes the set from the row
// count alone (workingSetCap), so these tests reach the refill path either
// with a model wide enough to select on its own, or by shrinking the set
// under a small model with setWorkingSetCap. The choice-knapsack models have
// the shape the crash basis takes (see crash), which would leave pricing a
// handful of pivots to do, so these tests start from the all-slack basis.

// randChoiceKnapsack builds a multiple-choice knapsack LP shaped like the
// compact scheduling model: groups of 0-1 columns with a pick-at-most-one
// row each, and two knapsack rows across all of them. Values repeat and some
// are zero, so pricing meets ties and columns that never improve.
func randChoiceKnapsack(rng *rand.Rand, groups, perGroup int) *Problem {
	p := &Problem{}
	var all []int
	var wa, wb []float64
	for g := 0; g < groups; g++ {
		var idx []int
		var one []float64
		for k := 0; k < perGroup; k++ {
			j := p.AddVar(float64(rng.Intn(6)), 0, 1, "")
			idx, one = append(idx, j), append(one, 1)
			all = append(all, j)
			wa = append(wa, float64(1+rng.Intn(9)))
			wb = append(wb, float64(rng.Intn(5)))
		}
		p.AddConstraint(idx, one, LE, 1, "")
	}
	p.Classes = groups
	p.AddConstraint(all, wa, LE, float64(2*groups), "")
	p.AddConstraint(all, wb, LE, float64(groups), "")
	return p
}

// solveWithSet solves p cold with a pricing working set of c columns, or
// returns nil when even that set would price the whole model.
func solveWithSet(p *Problem, c int) (*Solution, *SolverStats) {
	rv := newRevised(p, buildColStore(p))
	rv.noCrash = true
	rv.setWorkingSetCap(c)
	if rv.pricesAll() {
		return nil, nil
	}
	return rv.solveCold(p.Lower, p.Upper), rv.stats
}

// TestWorkingSetMatchesFullPricing: whatever the set size, the verdict and
// the optimal objective are those of full pricing, and the point is feasible.
func TestWorkingSetMatchesFullPricing(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	selected := 0
	check := func(name string, p *Problem) {
		full := newRevised(p, buildColStore(p))
		full.noCrash = true
		full.setWorkingSetCap(full.width)
		want := full.solveCold(p.Lower, p.Upper)
		for _, c := range []int{1, 2, 5} {
			got, _ := solveWithSet(p, c)
			if got == nil {
				continue
			}
			selected++
			if got.Status != want.Status {
				t.Fatalf("%s, set of %d: status %v, full pricing %v", name, c, got.Status, want.Status)
			}
			if got.Status != Optimal {
				continue
			}
			if math.Abs(got.Objective-want.Objective) > 1e-9*(1+math.Abs(want.Objective)) {
				t.Fatalf("%s, set of %d: objective %.12g, full pricing %.12g", name, c, got.Objective, want.Objective)
			}
			if v := p.FirstViolation(got.X, 1e-7); v != "" {
				t.Fatalf("%s, set of %d: %s", name, c, v)
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		check("random bounded LP", randBoundedProblem(rng))
	}
	for trial := 0; trial < 20; trial++ {
		check("choice knapsack", randChoiceKnapsack(rng, 3+rng.Intn(6), 2+rng.Intn(5)))
	}
	if selected < 300 {
		t.Fatalf("only %d solves ran on a selected set; the corpus is too narrow", selected)
	}
}

// TestWideModelRefillsItsWorkingSet: a model wide enough for the production
// rule selects sets on its own, spends several of them, prices a fraction of
// the columns per pivot — and ends on the full-pricing objective.
func TestWideModelRefillsItsWorkingSet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randChoiceKnapsack(rng, 40, 12)
	rv := newRevised(p, buildColStore(p))
	rv.noCrash = true
	if rv.pricesAll() {
		t.Fatalf("%d columns over %d rows still priced whole", rv.width, rv.m)
	}
	got := rv.solveCold(p.Lower, p.Upper)
	full := newRevised(p, buildColStore(p))
	full.noCrash = true
	full.setWorkingSetCap(full.width)
	want := full.solveCold(p.Lower, p.Upper)
	if got.Status != Optimal || want.Status != Optimal || math.Abs(got.Objective-want.Objective) > 1e-9 {
		t.Fatalf("selected sets: %v %.12g, full pricing: %v %.12g", got.Status, got.Objective, want.Status, want.Objective)
	}
	if rv.stats.FullPricingPasses < 3 {
		t.Errorf("%d full passes, want at least two refills and the optimality proof", rv.stats.FullPricingPasses)
	}
	if rv.stats.FullPricingPasses >= got.Iters {
		t.Errorf("%d full passes over %d iterations: every pivot priced every column", rv.stats.FullPricingPasses, got.Iters)
	}
	if perIter, fullPerIter := rv.stats.PricedColumns/got.Iters, full.stats.PricedColumns/want.Iters; 2*perIter > fullPerIter {
		t.Errorf("%d columns priced per iteration against %d under full pricing", perIter, fullPerIter)
	}
	// Full pricing counts every pass as a full one, each over every column.
	if full.stats.FullPricingPasses != want.Iters || full.stats.PricedColumns != want.Iters*full.width {
		t.Errorf("full pricing: %d passes and %d columns over %d iterations of width %d",
			full.stats.FullPricingPasses, full.stats.PricedColumns, want.Iters, full.width)
	}
}

// TestSolverColdMatchesSolveOnSelectedSets extends the SolveCold == Solve
// identity to a model that selects working sets: a solver with a history of
// warm re-solves behind it restarts cold on exactly the pivots of a fresh
// state.
func TestSolverColdMatchesSolveOnSelectedSets(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randChoiceKnapsack(rng, 30, 12)
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	lower := append([]float64(nil), p.Lower...)
	upper := append([]float64(nil), p.Upper...)
	for step := 0; step < 8; step++ {
		s.Solve(lower, upper) // warm from step 1 on
		got := s.SolveCold(lower, upper)
		work := p.Clone()
		copy(work.Lower, lower)
		copy(work.Upper, upper)
		ref, err := Solve(work)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != ref.Status || got.Iters != ref.Iters || got.Objective != ref.Objective {
			t.Fatalf("step %d: %v in %d iterations at %v, lp.Solve %v in %d at %v",
				step, got.Status, got.Iters, got.Objective, ref.Status, ref.Iters, ref.Objective)
		}
		for j := range got.X {
			if got.X[j] != ref.X[j] {
				t.Fatalf("step %d: X[%d] %v != lp.Solve's %v", step, j, got.X[j], ref.X[j])
			}
		}
		perturbBounds(rng, p, lower, upper)
	}
}

// TestSolverWarmMatchesColdOnSmallSets repeats the warm-vs-cold contract with
// the working set shrunk to two columns, so the primal clean-up after every
// dual restoration proves optimality by a refill rather than by a pass over
// an all-member set.
func TestSolverWarmMatchesColdOnSmallSets(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	warmSeen := 0
	for trial := 0; trial < 120; trial++ {
		p := randBoundedProblem(rng)
		s, err := NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		s.state().setWorkingSetCap(1)
		lower := append([]float64(nil), p.Lower...)
		upper := append([]float64(nil), p.Upper...)
		for step := 0; step < 10; step++ {
			sol, warm := s.Solve(lower, upper)
			if warm {
				warmSeen++
			}
			work := p.Clone()
			copy(work.Lower, lower)
			copy(work.Upper, upper)
			ref, err := Solve(work)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != ref.Status {
				t.Fatalf("trial %d step %d (warm=%v): status %v, reference %v", trial, step, warm, sol.Status, ref.Status)
			}
			if sol.Status == Optimal {
				if math.Abs(sol.Objective-ref.Objective) > 1e-6*(1+math.Abs(ref.Objective)) {
					t.Fatalf("trial %d step %d (warm=%v): objective %g, reference %g", trial, step, warm, sol.Objective, ref.Objective)
				}
				if v := work.FirstViolation(sol.X, 1e-6); v != "" {
					t.Fatalf("trial %d step %d (warm=%v): %s", trial, step, warm, v)
				}
			}
			perturbBounds(rng, p, lower, upper)
		}
	}
	if warmSeen == 0 {
		t.Fatal("no warm solve ever happened")
	}
}

// TestSolverReducedCosts: the accessor prices the optimal basis the solver
// sits on — d = c − Aᵀy against the duals of the same basis, with the resting
// side — in Lean mode too, and refuses when there is no such basis.
func TestSolverReducedCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	priced := 0
	for trial := 0; trial < 100; trial++ {
		p := randBoundedProblem(rng)
		n := p.NumVars()
		d, atUpper := make([]float64, n), make([]bool, n)
		s, err := NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		if s.ReducedCosts(d, atUpper) {
			t.Fatal("reduced costs before any solve")
		}
		s.Lean = trial%2 == 0
		sol := s.SolveCold(p.Lower, p.Upper)
		if ok := s.ReducedCosts(d, atUpper); ok != (sol.Status == Optimal) {
			t.Fatalf("trial %d: status %v but ReducedCosts reported %v", trial, sol.Status, ok)
		}
		if sol.Status != Optimal {
			continue
		}
		priced++
		ref, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		// Duals round entries below FeasTol to zero, and a row's coefficients
		// are at most 4 in magnitude; an equality row's dual is NaN.
		want, eq := append([]float64(nil), p.Objective...), false
		for r, c := range p.Constraints {
			eq = eq || c.Sense == EQ
			for k, j := range c.Idx {
				want[j] -= c.Coef[k] * ref.Duals[r]
			}
		}
		for j := 0; j < n && !eq; j++ {
			if math.Abs(d[j]-want[j]) > 4*float64(len(p.Constraints))*2*FeasTol {
				t.Fatalf("trial %d: d[%d] = %g, c - Aᵀy gives %g", trial, j, d[j], want[j])
			}
		}
		for j := 0; j < n; j++ {
			switch fixed := p.Upper[j]-p.Lower[j] <= eps; {
			case fixed:
			case atUpper[j] && (sol.X[j] != p.Upper[j] || d[j] < -eps):
				t.Fatalf("trial %d: column %d reported at its upper bound with x = %g of [%g, %g], d = %g",
					trial, j, sol.X[j], p.Lower[j], p.Upper[j], d[j])
			case !atUpper[j] && d[j] != 0 && (sol.X[j] != p.Lower[j] || d[j] > eps):
				t.Fatalf("trial %d: column %d reported at its lower bound with x = %g of [%g, %g], d = %g",
					trial, j, sol.X[j], p.Lower[j], p.Upper[j], d[j])
			}
		}
	}
	if priced < 30 {
		t.Fatalf("only %d optimal instances priced", priced)
	}
}
