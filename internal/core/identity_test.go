package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"insitu/internal/core"
	"insitu/internal/experiments"
	"insitu/internal/solvercheck"
)

// The identity tests pin that the arithmetic mode table and the
// allocate-once builder produce the model the materialising enumerator and
// the append-a-column builder produced (kept in reference_test.go): same
// columns in the same order, same rows, same coefficients, same names and
// the same exported bytes. They live in the external test package because the
// instance generators import core.

// identical checks one instance unforced and with every analysis forced on.
func identical(t *testing.T, label string, specs []core.AnalysisSpec, res core.Resources, opts core.SolveOptions) {
	t.Helper()
	for force := -1; force < len(specs); force++ {
		if err := core.CheckCompactIdentity(specs, res, opts, force); err != nil {
			t.Fatalf("%s, force %d: %v", label, force, err)
		}
	}
}

func TestCompactIdentityPaperSweeps(t *testing.T) {
	apps := []struct {
		name      string
		specs     []core.AnalysisSpec
		threshold float64 // the paper's budget; the sweep spans 1/4x to 4x of it
	}{
		{"waterions", experiments.WaterIonsSpecs(16384), 129.35},
		{"rhodopsin", experiments.RhodopsinSpecs(), 200},
		{"flash", experiments.FlashSpecs(), 43.5},
	}
	for _, app := range apps {
		for k := 0; k < 32; k++ {
			res := core.Resources{
				Steps:         1000,
				TimeThreshold: app.threshold * math.Pow(2, -2+4*float64(k)/31),
				MemThreshold:  12 << 30,
			}
			identical(t, fmt.Sprintf("%s threshold %d", app.name, k), app.specs, res, core.SolveOptions{})
		}
	}
}

func TestCompactIdentityRandomScenarios(t *testing.T) {
	for seed := int64(0); seed < 320; seed++ {
		rng := rand.New(rand.NewSource(seed))
		specs, res := solvercheck.RandScenario(rng, solvercheck.ScenarioConfig{MaxAnalyses: 4, MaxSteps: 24})
		// The generator draws OutputOptional itself; flipping it on every
		// other seed covers both values on every shape.
		if seed%2 == 1 {
			for i := range specs {
				specs[i].OutputOptional = !specs[i].OutputOptional
			}
		}
		for _, maxCount := range []int{0, 4} {
			for _, mem := range []int64{res.MemThreshold, 0, 5 << 20} { // drawn, absent, tight
				r := res
				r.MemThreshold = mem
				label := fmt.Sprintf("seed %d MaxCount %d mem %d", seed, maxCount, mem)
				identical(t, label, specs, r, core.SolveOptions{MaxCount: maxCount})
			}
		}
	}
}

// TestCompactIdentityReplanCorpus covers the models the replanner re-solves:
// the drift scenarios over shrinking remaining horizons, with costs rescaled
// by the factors its clamp allows.
func TestCompactIdentityReplanCorpus(t *testing.T) {
	for _, sc := range experiments.ReplanScenarios() {
		for _, remaining := range []int{sc.Steps, 75, 50, 31, 10, 4} {
			for _, f := range []float64{0.25, 1, 1.5, 3, 4} {
				specs := append([]core.AnalysisSpec(nil), sc.Specs...)
				for i := range specs {
					specs[i].CT *= f
					specs[i].OT = f * float64(specs[i].OM) / sc.Bandwidth
				}
				res := core.Resources{
					Steps:         remaining,
					TimeThreshold: sc.SimSec * float64(remaining) * sc.BudgetPercent / 100,
					MemThreshold:  sc.MemThreshold,
					Bandwidth:     sc.Bandwidth,
				}
				identical(t, fmt.Sprintf("%s remaining %d factor %g", sc.Name, remaining, f), specs, res, core.SolveOptions{})
			}
		}
	}
}

func TestCompactIdentityLargeSparse(t *testing.T) {
	for _, n := range []int{100, 220} {
		specs := core.LargeSparseSpecs(n)
		res := core.Resources{Steps: 1000, TimeThreshold: 600 * float64(n) / 220, MemThreshold: 12 << 30}
		for _, opts := range []core.SolveOptions{{MaxCount: 4}, {}} {
			label := fmt.Sprintf("n=%d MaxCount %d", n, opts.MaxCount)
			for _, force := range []int{-1, 0, n - 1} {
				if err := core.CheckCompactIdentity(specs, res, opts, force); err != nil {
					t.Fatalf("%s, force %d: %v", label, force, err)
				}
			}
		}
	}
}
