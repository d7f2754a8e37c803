package milp_test

import (
	"math/rand"
	"testing"

	"insitu/internal/core"
	"insitu/internal/lp"
	"insitu/internal/milp"
	"insitu/internal/solvercheck"
)

// TestRepairOverGenerators rounds the relaxations of branch-and-bound-style
// nodes of the compact models solvercheck's scenario generators draw (random,
// badly scaled and sparse campaigns): wherever the floor point is feasible,
// the repaired one is too and scores at least as much.
func TestRepairOverGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(2155))
	var points, floorFeasible, improved int
	check := func(name string, specs []core.AnalysisSpec, res core.Resources, maxCount int) {
		model, err := core.CompactModel(specs, res, core.SolveOptions{MaxCount: maxCount})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if model.LP.NumVars() == 0 {
			return
		}
		s, err := lp.NewSolver(model.LP)
		if err != nil {
			t.Fatal(err)
		}
		defer lp.Release([]*lp.Solver{s})
		lower := append([]float64(nil), model.LP.Lower...)
		upper := append([]float64(nil), model.LP.Upper...)
		for node := 0; node < 12; node++ {
			sol, _ := s.Solve(lower, upper)
			if sol.Status != lp.Optimal {
				copy(lower, model.LP.Lower)
				copy(upper, model.LP.Upper)
				continue
			}
			points++
			floor, repaired := milp.RepairOracle(model, sol.X)
			if !model.LP.Feasible(floor) {
				continue
			}
			floorFeasible++
			if v := model.LP.FirstViolation(repaired, lp.RowTol); v != "" {
				t.Fatalf("%s, node %d: the floor point is feasible, the repaired one is not: %s", name, node, v)
			}
			fo, ro := model.LP.Eval(floor), model.LP.Eval(repaired)
			if ro < fo {
				t.Fatalf("%s, node %d: repaired point scores %g, the floor point %g", name, node, ro, fo)
			}
			if ro > fo {
				improved++
			}
			// Branch on a random fractional column, as the search does.
			for tries := 0; tries < len(sol.X); tries++ {
				j := rng.Intn(len(sol.X))
				if v := sol.X[j]; v > lp.IntTol && v < 1-lp.IntTol {
					if rng.Intn(2) == 0 {
						upper[j] = 0
					} else {
						lower[j] = 1
					}
					break
				}
			}
		}
	}
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		specs, res := solvercheck.RandScenario(r, solvercheck.ScenarioConfig{MaxAnalyses: 6, MaxSteps: 40})
		check("random", specs, res, 0)
		specs, res = solvercheck.ScaledScenario(r, solvercheck.ScenarioConfig{MaxAnalyses: 4, MaxSteps: 16})
		check("scaled", specs, res, 0)
	}
	for sub := int64(0); sub < 8; sub++ {
		specs, res := solvercheck.SparseCampaign(7000+sub, 40)
		check("sparse", specs, res, 4)
	}
	t.Logf("%d relaxations rounded, %d with a feasible floor point, %d of them improved by the repair", points, floorFeasible, improved)
	if floorFeasible < 300 || improved < 100 {
		t.Fatalf("%d feasible floor points, %d improved: the corpus no longer exercises the repair", floorFeasible, improved)
	}
}
