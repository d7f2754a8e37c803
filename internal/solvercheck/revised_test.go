package solvercheck

import (
	"fmt"
	"math/rand"
	"testing"

	"insitu/internal/core"
	"insitu/internal/lp"
)

// The revised-simplex certificate suite: every verdict of the sparse revised
// simplex must be certified exactly (cert.go) on every corpus, including the
// pathological shapes built specifically to break its factorization
// machinery. Failure messages carry the seed for one-line reproduction.

func TestRevisedCertified(t *testing.T) {
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
	pinRays(t, cov, 250, 30)
}

// pinRays holds a corpus to the infeasible verdicts it certified by a Farkas
// ray, at least dual of them found by a warm re-solve's dual simplex and the
// rest by phase 1. Every optimal verdict was certified by its basis, or the
// corpus failed. TestRevisedCertified and TestCrashStartCertified together
// pin 500 rays.
func pinRays(t *testing.T, cov revisedCoverage, rays, dual int) {
	t.Helper()
	if cov.rays < rays || cov.dualRays < dual || cov.rays-cov.dualRays < dual {
		t.Errorf("corpus certified %d optimal verdicts, and %d infeasible ones by a ray (%d warm), want at least %d rays (%d warm, %d not)",
			cov.optimal, cov.rays, cov.dualRays, rays, dual, dual)
	}
}

// TestRevisedCertifiedOnRedundantEqualities runs the oracle on instances
// whose optimal basis keeps an artificial (a duplicated equality row), so the
// snapshots the walk carries between solvers include one.
func TestRevisedCertifiedOnRedundantEqualities(t *testing.T) {
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

func TestRevisedCertifiedOnWideLPs(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := RandLP(rng, LPConfig{MaxVars: 24, MaxCons: 16})
		if err := CheckRevised(rng, p); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestRevisedCertifiedOnSelectedWorkingSets runs the oracle on models wide
// enough that the primal simplex prices selected working sets — cold solves,
// the warm walk, and snapshots continued elsewhere all end their primal runs
// on a refill that finds nothing — and pins that the corpus does exhaust and
// refill its sets, which no RandLP instance (8 variables at most) ever can.
func TestRevisedCertifiedOnSelectedWorkingSets(t *testing.T) {
	var cov revisedCoverage
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := RandWideLP(rng)
		if err := checkRevised(rng, p, &cov); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
	if cov.refilled < 20 {
		t.Errorf("only %d of 40 wide instances refilled a working set twice", cov.refilled)
	}
}

// RandChoiceLP generates a small multiple-choice knapsack: groups of columns
// under a pick-at-most-one row each and one to three knapsack rows across all
// of them — the shape lp's cold start crashes from a greedy instead of the
// slacks. Small integers put ties everywhere: equal efficiencies, collinear
// hull points, columns that cost nothing on some row or on all of them,
// columns worth nothing, a few closed at zero the way presolve closes them and
// a few that may exceed one, and right-hand sides from nothing-fits to
// everything-fits.
func RandChoiceLP(rng *rand.Rand, groups, perGroup int) *lp.Problem {
	p := &lp.Problem{}
	var all []int
	for g := 0; g < groups; g++ {
		var idx []int
		var ones []float64
		for k := 0; k < 1+rng.Intn(perGroup); k++ {
			up := []float64{1, 1, 1, 1, 1, 0, 3}[rng.Intn(7)]
			j := p.AddVar(float64(rng.Intn(7)), 0, up, fmt.Sprintf("x%d_%d", g, k))
			idx, ones, all = append(idx, j), append(ones, 1), append(all, j)
		}
		p.AddConstraint(idx, ones, lp.LE, 1, fmt.Sprintf("pick%d", g))
	}
	p.Classes = groups
	for r := 0; r < 1+rng.Intn(3); r++ {
		w := make([]float64, len(all))
		for j := range w {
			w[j] = float64(rng.Intn(8))
		}
		p.AddConstraint(all, w, lp.LE, float64(1+rng.Intn(5*groups)), fmt.Sprintf("knap%d", r))
	}
	return p
}

// TestCrashStartCertified runs the oracle on multiple-choice knapsacks, the
// shape whose cold solves start from lp's crash basis: the cold answer, the
// warm walk from it and the snapshots carried elsewhere must all be certified.
func TestCrashStartCertified(t *testing.T) {
	var cov revisedCoverage
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := RandChoiceLP(rng, 1+rng.Intn(12), 1+rng.Intn(8))
		if err := checkRevised(rng, p, &cov); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
	if cov.crashed < 200 {
		t.Errorf("only %d of 300 choice knapsacks started from a crash basis", cov.crashed)
	}
	pinRays(t, cov, 250, 100)
}

// TestCrashStartOnCompactModels: the compact scheduling model is the shape
// the crash was built for. On RandScenario draws and on both sparse campaign
// sizes the root relaxation must start from a crash basis wherever a
// threshold row exists and some mode is worth seating, and reach a certified
// optimum from it. The certificate is exact, so the 12 GiB memory row of a
// campaign needs no tolerance of its own. On the campaigns the crash lands
// within a quarter of the rows' count of pivots of the optimum (31 at most on
// 222 rows, 1 on 102).
func TestCrashStartOnCompactModels(t *testing.T) {
	var cov revisedCoverage
	crashed := 0
	check := func(name string, specs []core.AnalysisSpec, res core.Resources, opts core.SolveOptions) {
		t.Helper()
		mp, err := core.CompactModel(specs, res, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s, err := lp.NewSolver(mp.LP)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := s.SolveCold(mp.LP.Lower, mp.LP.Upper)
		if err := certify(s, mp.LP, mp.LP.Lower, mp.LP.Upper, got, &cov); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		crashed += s.Stats.CrashStarts
		if rows := len(mp.LP.Constraints); name != "scenario" && (s.Stats.CrashStarts != 1 || got.Iters > rows/4) {
			t.Fatalf("%s: %d crash starts, %d iterations on %d rows", name, s.Stats.CrashStarts, got.Iters, rows)
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		specs, res := RandScenario(rng, ScenarioConfig{MaxAnalyses: 4})
		check("scenario", specs, res, core.SolveOptions{})
	}
	if crashed < 80 {
		t.Errorf("only %d of 200 scenario models started from a crash basis", crashed)
	}
	t.Logf("%d of 200 scenario models started from a crash basis", crashed)
	for _, c := range []struct{ n, instances int }{{100, 6}, {220, 3}} {
		for sub := int64(5000); sub < 5000+int64(c.instances); sub++ {
			specs, res := SparseCampaign(sub, c.n)
			check(fmt.Sprintf("sparse campaign %d/%d", c.n, sub), specs, res, core.SolveOptions{MaxCount: 4})
		}
	}
}

func TestRevisedCertifiedOnEtaChains(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := RandChainLP(rng, 48+rng.Intn(33))
		if err := CheckRevised(rng, p); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestRevisedCertifiedNearSingular(t *testing.T) {
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
		if err := RandWideLP(rng).Validate(); err != nil {
			t.Errorf("seed %d: invalid wide LP: %v", seed, err)
		}
		if err := RandChoiceLP(rng, 1+rng.Intn(12), 1+rng.Intn(8)).Validate(); err != nil {
			t.Errorf("seed %d: invalid choice LP: %v", seed, err)
		}
	}
}

// sameRows checks that p, whose rows reached AddConstraint unsorted and with
// repeated indices, is the model dense states one entry per variable: the
// stored rows scatter to dense's bit for bit, Feasible and FirstViolation
// agree, p's verdict is certified on the accumulated rows, and both solve to
// the same point bit for bit.
func sameRows(rng *rand.Rand, p, dense *lp.Problem) error {
	if err := p.Validate(); err != nil {
		return err
	}
	n := p.NumVars()
	for r, c := range p.Constraints {
		row := make([]float64, n)
		for k, j := range c.Idx {
			row[j] = c.Coef[k]
		}
		for j, v := range dense.Constraints[r].Coef {
			if row[j] != v {
				return fmt.Errorf("row %d: coefficient %d is %g, accumulated %g", r, j, row[j], v)
			}
		}
	}
	x := make([]float64, n)
	for trial := 0; trial < 8; trial++ {
		for j := range x {
			x[j] = p.Lower[j] + quarter(rng, 4*int(p.Upper[j]-p.Lower[j])+1)
		}
		if got, want := p.FirstViolation(x, 1e-9), dense.FirstViolation(x, 1e-9); got != want || p.Feasible(x) != (p.FirstViolation(x, lp.RowTol) == "") {
			return fmt.Errorf("at %v: FirstViolation %q, accumulated rows say %q", x, got, want)
		}
	}
	s, err := lp.NewSolver(p)
	if err != nil {
		return err
	}
	got := s.SolveCold(p.Lower, p.Upper)
	if err := certify(s, dense, dense.Lower, dense.Upper, got, &revisedCoverage{}); err != nil {
		return err
	}
	if got.Status != lp.Optimal {
		return nil
	}
	want, err := lp.Solve(dense)
	if err != nil {
		return err
	}
	for j := range got.X {
		if got.X[j] != want.X[j] {
			return fmt.Errorf("x[%d] = %g, the accumulated rows give %g", j, got.X[j], want.X[j])
		}
	}
	return nil
}

func TestDuplicateIndexRowsMatchAccumulatedDense(t *testing.T) {
	zeros := 0
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, dense := RandDupIndexLP(rng, LPConfig{})
		for _, c := range p.Constraints {
			for _, v := range c.Coef {
				if v == 0 {
					zeros++ // a cancelled pair, kept as a stored zero
				}
			}
		}
		if err := sameRows(rng, p, dense); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if err := CheckLP(rng, p); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
	if zeros < 20 {
		t.Errorf("corpus left only %d stored zeros, want at least 20", zeros)
	}
}
