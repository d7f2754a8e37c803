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
// the same exported bytes. The shape test holds every model's declared
// classes to the row detector lp's crash used to run (kept in
// shape_test.go) over the same corpora. They live in the external test
// package because the instance generators import core.

// check is one test of the compact model built for an instance, unforced
// (force -1) or with analysis force forced on.
type check func(specs []core.AnalysisSpec, res core.Resources, opts core.SolveOptions, force int) error

// everyForce checks one instance unforced and with every analysis forced on.
func everyForce(t *testing.T, c check, label string, specs []core.AnalysisSpec, res core.Resources, opts core.SolveOptions) {
	t.Helper()
	for force := -1; force < len(specs); force++ {
		if err := c(specs, res, opts, force); err != nil {
			t.Fatalf("%s, force %d: %v", label, force, err)
		}
	}
}

func TestCompactIdentityPaperSweeps(t *testing.T)     { paperSweeps(t, core.CheckCompactIdentity) }
func TestCompactIdentityRandomScenarios(t *testing.T) { randomScenarios(t, core.CheckCompactIdentity) }
func TestCompactIdentityReplanCorpus(t *testing.T)    { replanCorpus(t, core.CheckCompactIdentity) }
func TestCompactIdentityLargeSparse(t *testing.T)     { largeSparse(t, core.CheckCompactIdentity) }

// TestDeclaredShapeMatchesDetector: every model a program solves declares
// the classes the row detector found in it, so the crash starts exactly
// where it did — the compact corpora unforced and forced, placement models
// with and without staging rows, and the time-indexed model.
func TestDeclaredShapeMatchesDetector(t *testing.T) {
	for _, corpus := range []func(*testing.T, check){paperSweeps, randomScenarios, replanCorpus, largeSparse} {
		corpus(t, core.CheckDeclaredShape)
	}
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		specs, res := solvercheck.RandScenario(rng, solvercheck.ScenarioConfig{MaxAnalyses: 4, MaxSteps: 24})
		if err := core.CheckFullShape(specs, res); err != nil {
			t.Fatalf("seed %d, full model: %v", seed, err)
		}
		place := make([]core.PlacementSpec, len(specs))
		for i, a := range specs {
			place[i] = core.PlacementSpec{AnalysisSpec: a, TransferBytes: int64(rng.Intn(4)) << 20, StageMem: int64(rng.Intn(3)) << 20}
		}
		for _, stage := range []struct {
			mem  int64
			time float64
		}{{0, 0}, {8 << 20, 0}, {0, res.TimeThreshold}, {2 << 20, res.TimeThreshold / 2}} {
			pr := core.PlacementResources{Resources: res, NetBandwidth: 1e9, StageMemTotal: stage.mem, StageTimeTotal: stage.time}
			if err := core.CheckPlacementShape(place, pr); err != nil {
				t.Fatalf("seed %d, placement with staging %+v: %v", seed, stage, err)
			}
		}
	}
}

// TestPresolveRunsOnUndeclaredModels: the root presolve leaves a model that
// declares its shape as it is, and tightens the forced probes, which declare
// none.
func TestPresolveRunsOnUndeclaredModels(t *testing.T) {
	forced := 0
	paperSweeps(t, func(specs []core.AnalysisSpec, res core.Resources, opts core.SolveOptions, force int) error {
		n, err := core.PresolveTightened(specs, res, opts, force)
		if err != nil {
			return err
		}
		if force < 0 && n != 0 {
			return fmt.Errorf("presolve tightened %d bounds of a declared model", n)
		}
		forced += n
		return nil
	})
	t.Logf("presolve tightened %d bounds over the forced probes", forced)
	if forced == 0 {
		t.Fatal("presolve tightened no forced probe: it no longer runs on undeclared models")
	}
}

func paperSweeps(t *testing.T, c check) {
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
			everyForce(t, c, fmt.Sprintf("%s threshold %d", app.name, k), app.specs, res, core.SolveOptions{})
		}
	}
}

func randomScenarios(t *testing.T, c check) {
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
				everyForce(t, c, label, specs, r, core.SolveOptions{MaxCount: maxCount})
			}
		}
	}
}

// replanCorpus covers the models the replanner re-solves: the drift scenarios
// over shrinking remaining horizons, with costs rescaled by the factors its
// clamp allows.
func replanCorpus(t *testing.T, c check) {
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
				everyForce(t, c, fmt.Sprintf("%s remaining %d factor %g", sc.Name, remaining, f), specs, res, core.SolveOptions{})
			}
		}
	}
}

func largeSparse(t *testing.T, c check) {
	for _, n := range []int{100, 220} {
		specs := core.LargeSparseSpecs(n)
		res := core.Resources{Steps: 1000, TimeThreshold: 600 * float64(n) / 220, MemThreshold: 12 << 30}
		for _, opts := range []core.SolveOptions{{MaxCount: 4}, {}} {
			label := fmt.Sprintf("n=%d MaxCount %d", n, opts.MaxCount)
			for _, force := range []int{-1, 0, n - 1} {
				if err := c(specs, res, opts, force); err != nil {
					t.Fatalf("%s, force %d: %v", label, force, err)
				}
			}
		}
	}
}
