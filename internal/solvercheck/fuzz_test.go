package solvercheck

import (
	"math/rand"
	"testing"

	"insitu/internal/lp"
)

// Native fuzz targets: the fuzzer steers the generator seed and shape knobs,
// and the differential oracles act as crash/feasibility detectors. Under
// plain `go test` only the seed corpus runs (fast); CI adds a short-budget
// `-fuzz` smoke pass per target.

func FuzzLPSolve(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3))
	f.Add(int64(42), uint8(8), uint8(6))
	f.Add(int64(-7), uint8(1), uint8(0))
	f.Add(int64(1<<40), uint8(12), uint8(9))
	// Top bit of cons: a multiple-choice knapsack, whose cold solve crashes.
	f.Add(int64(3), uint8(5), uint8(0x83))
	f.Add(int64(-19), uint8(11), uint8(0x87))
	f.Add(int64(77), uint8(0), uint8(0x80))
	f.Fuzz(func(t *testing.T, seed int64, vars, cons uint8) {
		rng := rand.New(rand.NewSource(seed))
		cfg := LPConfig{MaxVars: 1 + int(vars%12), MaxCons: 1 + int(cons%9)}
		p := RandLP(rng, cfg)
		if cons&0x80 != 0 {
			p = RandChoiceLP(rng, 1+int(vars%12), 1+int(cons%8))
		}
		if err := CheckLP(rng, p); err != nil {
			t.Fatalf("seed %d cfg %+v: %v", seed, cfg, err)
		}
	})
}

func FuzzMILPSolve(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3))
	f.Add(int64(99), uint8(9), uint8(5))
	f.Add(int64(-3), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, bins, cons uint8) {
		rng := rand.New(rand.NewSource(seed))
		cfg := MILPConfig{MaxBinaries: 2 + int(bins%9), MaxCons: 1 + int(cons%5)}
		p := RandBinaryMILP(rng, cfg)
		if err := CheckMILP(rng, p); err != nil {
			t.Fatalf("seed %d cfg %+v: %v", seed, cfg, err)
		}
	})
}

func FuzzRevisedSimplex(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(4), uint8(0))
	f.Add(int64(42), uint8(12), uint8(8), uint8(1))
	f.Add(int64(-7), uint8(3), uint8(2), uint8(2))
	f.Add(int64(1<<33), uint8(20), uint8(12), uint8(0))
	f.Add(int64(5), uint8(8), uint8(4), uint8(3))
	f.Add(int64(9), uint8(10), uint8(6), uint8(4))
	f.Add(int64(13), uint8(0), uint8(0), uint8(5))
	f.Add(int64(2), uint8(7), uint8(5), uint8(6))
	f.Add(int64(-31), uint8(11), uint8(2), uint8(6))
	f.Add(int64(404), uint8(0), uint8(7), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, vars, cons, kind uint8) {
		rng := rand.New(rand.NewSource(seed))
		var p *lp.Problem
		switch kind % 7 {
		case 0:
			p = RandLP(rng, LPConfig{MaxVars: 1 + int(vars%24), MaxCons: 1 + int(cons%16)})
		case 1:
			p = RandChainLP(rng, 16+int(vars)%80)
		case 2:
			p = RandNearSingularLP(rng)
		case 3:
			p = RandRedundantEqLP(rng)
		case 4:
			// Wide enough to price selected working sets and refill them.
			p = RandWideLP(rng)
		case 6:
			// Multiple-choice knapsacks: cold solves start from a crash basis.
			p = RandChoiceLP(rng, 1+int(vars%12), 1+int(cons%8))
		default:
			// Rows given to AddConstraint unsorted, with repeated indices.
			var dense *lp.Problem
			p, dense = RandDupIndexLP(rng, LPConfig{MaxVars: 1 + int(vars%24), MaxCons: 1 + int(cons%16)})
			if err := sameRows(rng, p, dense); err != nil {
				t.Fatalf("seed %d kind %d: %v", seed, kind%7, err)
			}
		}
		// CheckRevised includes the snapshot steps: a basis carried to a
		// second solver three rounds on, and snapshots that must fall back.
		if err := CheckRevised(rng, p); err != nil {
			t.Fatalf("seed %d kind %d: %v", seed, kind%7, err)
		}
	})
}

// FuzzScenarioSolve runs the scheduling oracle suite, brute force included,
// on RandScenario instances, or on ScaledScenario's badly scaled ones.
func FuzzScenarioSolve(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(8), false)
	f.Add(int64(17), uint8(1), uint8(4), false)
	f.Add(int64(-11), uint8(2), uint8(10), false)
	f.Add(int64(3), uint8(1), uint8(8), true)
	f.Add(int64(29), uint8(2), uint8(5), true)
	f.Add(int64(-7), uint8(1), uint8(10), true)
	f.Fuzz(func(t *testing.T, seed int64, analyses, steps uint8, scaled bool) {
		rng := rand.New(rand.NewSource(seed))
		cfg := ScenarioConfig{MaxAnalyses: 1 + int(analyses%2), MaxSteps: 2 + int(steps%9)}
		gen := RandScenario
		if scaled {
			gen = ScaledScenario
		}
		specs, res := gen(rng, cfg)
		if err := CheckScenario(rng, specs, res, ScenarioChecks{BruteForce: true}); err != nil {
			t.Fatalf("seed %d cfg %+v specs %+v res %+v: %v", seed, cfg, specs, res, err)
		}
	})
}
