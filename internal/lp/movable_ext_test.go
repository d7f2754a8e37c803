package lp_test

import (
	"math/rand"
	"testing"

	"insitu/internal/core"
	"insitu/internal/lp"
	"insitu/internal/solvercheck"
)

// TestMovableListOnGenerators runs the movable-list oracle (see
// movableOracle) over solvercheck's corpora: random sparse LPs with fixed
// columns and artificial-seated rows, long eta chains, near-singular row
// pairs, and the GUB+knapsack compact models of the sparse benchmark
// campaigns. Across them it must reach every path that changes what can
// move: dual and primal pivots, a refactorization in the middle of a dual
// run, phase 1 with driveOutArtificials, installed snapshots and failed warm
// starts that fall back cold.
func TestMovableListOnGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(2005))
	corpora := []struct {
		name   string
		trials int
		gen    func() (*lp.Problem, error)
	}{
		{"random sparse LP", 200, func() (*lp.Problem, error) {
			return solvercheck.RandLP(rng, solvercheck.LPConfig{MaxVars: 14, MaxCons: 10}), nil
		}},
		{"eta chain", 12, func() (*lp.Problem, error) {
			return solvercheck.RandChainLP(rng, 0), nil
		}},
		{"near-singular", 200, func() (*lp.Problem, error) {
			return solvercheck.RandNearSingularLP(rng), nil
		}},
		{"sparse campaign", 6, func() (*lp.Problem, error) {
			specs, res := solvercheck.SparseCampaign(rng.Int63n(1000), 20+rng.Intn(100))
			mp, err := core.CompactModel(specs, res, core.SolveOptions{MaxCount: 4})
			if err != nil {
				return nil, err
			}
			return mp.LP, nil
		}},
	}
	var total lp.MovableCounts
	for _, c := range corpora {
		var sum lp.MovableCounts
		for trial := 0; trial < c.trials; trial++ {
			p, err := c.gen()
			if err != nil {
				t.Fatalf("%s %d: %v", c.name, trial, err)
			}
			n, err := lp.MovableOracle(rng, p)
			if err != nil {
				t.Fatalf("%s %d: %v", c.name, trial, err)
			}
			sum.Checks += n.Checks
			sum.DualPivots += n.DualPivots
			sum.PrimalPivots += n.PrimalPivots
			sum.MidDualRefactors += n.MidDualRefactors
			sum.ArtificialColds += n.ArtificialColds
			sum.Installs += n.Installs
			sum.Fallbacks += n.Fallbacks
		}
		t.Logf("%s: %+v", c.name, sum)
		if sum.DualPivots == 0 || sum.PrimalPivots == 0 {
			t.Errorf("%s: %+v: the corpus no longer pivots both ways", c.name, sum)
		}
		total.MidDualRefactors += sum.MidDualRefactors
		total.ArtificialColds += sum.ArtificialColds
		total.Installs += sum.Installs
		total.Fallbacks += sum.Fallbacks
	}
	if total.MidDualRefactors == 0 || total.ArtificialColds == 0 || total.Installs == 0 || total.Fallbacks == 0 {
		t.Errorf("%+v: the corpora no longer reach every path that moves the list", total)
	}
}
