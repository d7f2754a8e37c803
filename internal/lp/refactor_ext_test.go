package lp_test

import (
	"math/rand"
	"testing"

	"insitu/internal/core"
	"insitu/internal/lp"
	"insitu/internal/solvercheck"
)

// TestRefactorMatchesDenseOnGenerators runs the refactorization oracle (see
// refactorOracle) over solvercheck's corpora: random sparse LPs, long eta
// chains, near-singular row pairs, and the compact models of the sparse
// benchmark campaigns.
func TestRefactorMatchesDenseOnGenerators(t *testing.T) {
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
	for _, c := range corpora {
		var seated, singular, fill int
		for trial := 0; trial < c.trials; trial++ {
			p, err := c.gen()
			if err != nil {
				t.Fatalf("%s %d: %v", c.name, trial, err)
			}
			s, z, f, err := lp.RefactorOracle(rng, p)
			if err != nil {
				t.Fatalf("%s %d: %v", c.name, trial, err)
			}
			seated, singular, fill = seated+s, singular+z, fill+f
		}
		t.Logf("%s: %d bases factorized with %d eta entries of fill, %d singular", c.name, seated, fill, singular)
		if seated == 0 || singular == 0 || fill == 0 {
			t.Errorf("%s: %d bases factorized with %d eta entries of fill, %d singular: the corpus no longer reaches both verdicts", c.name, seated, fill, singular)
		}
	}
}
