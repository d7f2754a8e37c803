package solvercheck

import (
	"math/rand"
	"testing"

	"insitu/internal/core"
	"insitu/internal/lp"
	"insitu/internal/milp"
)

// The differential harness: hundreds of seeded random instances per solver
// layer, each cross-checked against independent ground truth. Every failure
// message carries the instance seed, so a red run reproduces with a
// one-line test.

func TestDifferentialLP(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := RandLP(rng, LPConfig{})
		if err := CheckLP(rng, p); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestDifferentialMILP(t *testing.T) {
	var cov milpCoverage
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := RandBinaryMILP(rng, MILPConfig{})
		if err := checkMILP(rng, p, &cov); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
	// Enumeration only vouches for reduced-cost fixing and the node-limit
	// bound on the instances that get that far.
	if cov.fixed < 10 || cov.nodeLimited < 10 {
		t.Errorf("corpus fixed columns by reduced cost on %d instances and hit the node limit on %d, want at least 10 each",
			cov.fixed, cov.nodeLimited)
	}
}

// TestDifferentialMixedMILP runs the same oracles on models with general
// integer and continuous columns: the search that fixes integer columns by
// reduced cost must still land on the enumerated optimum when part of the
// objective rides on columns it may not touch.
func TestDifferentialMixedMILP(t *testing.T) {
	var cov milpCoverage
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := RandMixedMILP(rng, MILPConfig{})
		if err := checkMILP(rng, p, &cov); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
	if cov.fixed < 10 {
		t.Errorf("corpus fixed columns by reduced cost on only %d instances", cov.fixed)
	}
}

func TestDifferentialScenarios(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		specs, res := RandScenario(rng, ScenarioConfig{MaxAnalyses: 2, MaxSteps: 10})
		if err := CheckScenario(rng, specs, res, ScenarioChecks{BruteForce: true}); err != nil {
			t.Errorf("seed %d (specs %+v res %+v): %v", seed, specs, res, err)
		}
	}
}

func TestDifferentialFullModel(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		specs, res := RandScenario(rng, ScenarioConfig{MaxAnalyses: 2, MaxSteps: 5})
		if err := CheckScenario(rng, specs, res, ScenarioChecks{BruteForce: true, FullModel: true}); err != nil {
			t.Errorf("seed %d (specs %+v res %+v): %v", seed, specs, res, err)
		}
	}
}

// TestGeneratorsDeterministic pins the reproducibility contract: the same
// seed must yield the same instance, or failure seeds are worthless.
func TestGeneratorsDeterministic(t *testing.T) {
	a := RandLP(rand.New(rand.NewSource(7)), LPConfig{})
	b := RandLP(rand.New(rand.NewSource(7)), LPConfig{})
	if a.NumVars() != b.NumVars() || len(a.Constraints) != len(b.Constraints) {
		t.Fatalf("RandLP not deterministic: %d/%d vars, %d/%d rows",
			a.NumVars(), b.NumVars(), len(a.Constraints), len(b.Constraints))
	}
	for j := range a.Objective {
		if a.Objective[j] != b.Objective[j] || a.Lower[j] != b.Lower[j] || a.Upper[j] != b.Upper[j] {
			t.Fatalf("RandLP not deterministic at variable %d", j)
		}
	}
	s1, r1 := RandScenario(rand.New(rand.NewSource(9)), ScenarioConfig{})
	s2, r2 := RandScenario(rand.New(rand.NewSource(9)), ScenarioConfig{})
	if r1 != r2 || len(s1) != len(s2) {
		t.Fatalf("RandScenario not deterministic: %+v vs %+v", r1, r2)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("RandScenario not deterministic at spec %d: %+v vs %+v", i, s1[i], s2[i])
		}
	}
}

// TestGeneratorsAreValid asserts every generated instance passes the target
// packages' own structural validation, so oracle failures always indict the
// solver, never the generator.
func TestGeneratorsAreValid(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		if err := RandLP(rng, LPConfig{}).Validate(); err != nil {
			t.Errorf("seed %d: invalid LP: %v", seed, err)
		}
		m := RandBinaryMILP(rng, MILPConfig{})
		if err := m.LP.Validate(); err != nil {
			t.Errorf("seed %d: invalid MILP: %v", seed, err)
		}
		if err := RandMixedMILP(rng, MILPConfig{}).LP.Validate(); err != nil {
			t.Errorf("seed %d: invalid mixed MILP: %v", seed, err)
		}
		specs, res := RandScenario(rng, ScenarioConfig{})
		if err := res.Validate(); err != nil {
			t.Errorf("seed %d: invalid resources: %v", seed, err)
		}
		for _, a := range specs {
			if err := a.Validate(); err != nil {
				t.Errorf("seed %d: invalid spec %q: %v", seed, a.Name, err)
			}
		}
	}
}

// TestScenarioGeneratorCoversDegenerateCases asserts the sampler actually
// reaches the corners it promises (zero-cost analyses, interval at and above
// Steps, unconstrained and memory-constrained envelopes, bandwidth-derived
// output times), so harness coverage cannot silently rot.
func TestScenarioGeneratorCoversDegenerateCases(t *testing.T) {
	var zeroCost, itvAtSteps, itvAboveSteps, unconstrained, memTight, bwDerived, optional int
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		specs, res := RandScenario(rng, ScenarioConfig{})
		if res.TimeThreshold == 0 && res.MemThreshold == 0 {
			unconstrained++
		}
		if res.MemThreshold > 0 {
			memTight++
		}
		for _, a := range specs {
			if a.FT == 0 && a.IT == 0 && a.CT == 0 && a.OT == 0 {
				zeroCost++
			}
			if a.MinInterval == res.Steps {
				itvAtSteps++
			}
			if a.MinInterval > res.Steps {
				itvAboveSteps++
			}
			if a.OT == 0 && a.OM > 0 && res.Bandwidth > 0 {
				bwDerived++
			}
			if a.OutputOptional {
				optional++
			}
		}
	}
	for name, n := range map[string]int{
		"zero-cost analyses":     zeroCost,
		"itv == Steps":           itvAtSteps,
		"itv > Steps":            itvAboveSteps,
		"unconstrained envelope": unconstrained,
		"memory-constrained":     memTight,
		"bandwidth-derived ot":   bwDerived,
		"optional outputs":       optional,
	} {
		if n < 10 {
			t.Errorf("degenerate case %q hit only %d times in 400 scenarios", name, n)
		}
	}
}

// TestCheckScenarioCatchesBadSchedule sanity-checks the oracle itself: a
// hand-broken recommendation must be rejected by core validation.
func TestCheckScenarioCatchesBadSchedule(t *testing.T) {
	specs := []core.AnalysisSpec{{Name: "a", CT: 1, MinInterval: 2}}
	res := core.Resources{Steps: 10, TimeThreshold: 100}
	rec, err := core.Solve(specs, res, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec.Schedules[0].AnalysisSteps = []int{1, 2} // violates MinInterval 2
	rec.Schedules[0].Count = 2
	if err := rec.Validate(specs, res); err == nil {
		t.Fatal("validation accepted an interval-violating schedule")
	}
}

// TestHarnessSizeGatesOnBruteForce pins the satellite contract: the harness
// must recognize milp.BruteForce's typed refusal rather than failing on it.
func TestHarnessSizeGatesOnBruteForce(t *testing.T) {
	p := milp.NewProblem(&lp.Problem{})
	for i := 0; i < 24; i++ {
		p.AddBinVar(0, "")
	}
	rng := rand.New(rand.NewSource(1))
	if err := CheckMILP(rng, p); err != nil {
		t.Fatalf("CheckMILP failed on a brute-force-oversized instance: %v", err)
	}
}
