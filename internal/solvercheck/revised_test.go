package solvercheck

import (
	"math/rand"
	"testing"

	"insitu/internal/lp"
)

// The revised-vs-dense differential suite: the sparse revised simplex must
// reproduce the dense tableau's verdicts on every corpus, including the
// pathological shapes built specifically to break its factorization
// machinery. Failure messages carry the seed for one-line reproduction.

func TestRevisedMatchesDense(t *testing.T) {
	var cov revisedCoverage
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := RandLP(rng, LPConfig{})
		if err := checkRevised(rng, p, &cov); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
	// The snapshot steps only mean something if the corpus reaches them.
	if cov.warmTransfers < 20 || cov.singular < 20 {
		t.Errorf("corpus continued %d snapshots warm on a second solver and rejected %d as singular, want at least 20 each",
			cov.warmTransfers, cov.singular)
	}
}

// TestRevisedMatchesDenseOnRedundantEqualities runs the oracle on instances
// whose optimal basis keeps an artificial (a duplicated equality row), so the
// snapshots the walk carries between solvers include one.
func TestRevisedMatchesDenseOnRedundantEqualities(t *testing.T) {
	var cov revisedCoverage
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := RandRedundantEqLP(rng)
		if err := checkRevised(rng, p, &cov); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
	if cov.warmTransfers < 20 {
		t.Errorf("corpus continued only %d snapshots warm on a second solver", cov.warmTransfers)
	}
}

func TestRevisedMatchesDenseOnWideLPs(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := RandLP(rng, LPConfig{MaxVars: 24, MaxCons: 16})
		if err := CheckRevised(rng, p); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestRevisedMatchesDenseOnEtaChains(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := RandChainLP(rng, 48+rng.Intn(33))
		if err := CheckRevised(rng, p); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestRevisedMatchesDenseNearSingular(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := RandNearSingularLP(rng)
		if err := CheckRevised(rng, p); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestChainLPForcesRefactorization pins that the eta-chain generator actually
// reaches the machinery it targets: a representative instance must report at
// least one basis refactorization and a nonzero eta-file peak through the
// Solver stats, or the pathological corpus has silently stopped covering the
// product-form update path.
func TestChainLPForcesRefactorization(t *testing.T) {
	refactored := false
	for seed := int64(0); seed < 10 && !refactored; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := RandChainLP(rng, 80)
		sv, err := lp.NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		if sol := sv.SolveCold(p.Lower, p.Upper); sol.Status != lp.Optimal {
			t.Fatalf("seed %d: chain instance solved to %v, want optimal", seed, sol.Status)
		}
		if sv.Stats.EtaPeak == 0 {
			t.Fatalf("seed %d: chain solve recorded no eta entries", seed)
		}
		refactored = sv.Stats.Refactorizations > 0
	}
	if !refactored {
		t.Fatal("no chain instance triggered a refactorization; the pathological corpus lost coverage")
	}
}

// TestPathologicalGeneratorsAreValid mirrors TestGeneratorsAreValid for the
// revised-simplex corpora.
func TestPathologicalGeneratorsAreValid(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		if err := RandChainLP(rng, 40).Validate(); err != nil {
			t.Errorf("seed %d: invalid chain LP: %v", seed, err)
		}
		if err := RandNearSingularLP(rng).Validate(); err != nil {
			t.Errorf("seed %d: invalid near-singular LP: %v", seed, err)
		}
		if err := RandRedundantEqLP(rng).Validate(); err != nil {
			t.Errorf("seed %d: invalid redundant-equality LP: %v", seed, err)
		}
	}
}
