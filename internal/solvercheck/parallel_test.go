package solvercheck

import (
	"math"
	"math/rand"
	"testing"

	"insitu/internal/core"
	"insitu/internal/milp"
	"insitu/internal/obs"
)

// solveTrajectory solves with opts and returns the recommendation and the
// incumbent records of its flight stream.
func solveTrajectory(specs []core.AnalysisSpec, res core.Resources, opts core.SolveOptions) (*core.Recommendation, []obs.SolveProgress, error) {
	var incs []obs.SolveProgress
	opts.Progress = func(p obs.SolveProgress) {
		if p.Kind == obs.SolveProgIncumbent {
			incs = append(incs, p)
		}
	}
	rec, err := core.Solve(specs, res, opts)
	return rec, incs, err
}

// trajectoryOK checks the shape every incumbent trajectory must have:
// objectives never regress (the root-integral path may re-record the
// heuristic seed at equal value), bounds never sit below their objective,
// and the last entry carries the final objective.
func trajectoryOK(inc []obs.SolveProgress, finalObj float64) string {
	prev := math.Inf(-1)
	for _, p := range inc {
		if p.Incumbent < prev {
			return "objectives regress"
		}
		if !p.HasBound || p.Bound < p.Incumbent-objTol {
			return "bound below objective"
		}
		prev = p.Incumbent
	}
	if len(inc) > 0 && !objClose(inc[len(inc)-1].Incumbent, finalObj) {
		return "last incumbent is not the final objective"
	}
	return ""
}

// TestParallelDeterminismScenarioCorpus is the satellite determinism test:
// across the seeded scenario corpus, Workers=1 and Workers=8 must return
// the same objective and bound, and both incumbent trajectories must have
// the canonical improving shape. It runs in the CI race job, so the
// parallel path is also exercised under the race detector here.
func TestParallelDeterminismScenarioCorpus(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		specs, res := RandScenario(rng, ScenarioConfig{MaxAnalyses: 3, MaxSteps: 12})
		serial, serialIncs, err := solveTrajectory(specs, res, core.SolveOptions{})
		if err != nil {
			t.Fatalf("seed %d: serial: %v", seed, err)
		}
		par, parIncs, err := solveTrajectory(specs, res, core.SolveOptions{Workers: 8})
		if err != nil {
			t.Fatalf("seed %d: workers=8: %v", seed, err)
		}
		if !objClose(par.Objective, serial.Objective) {
			t.Errorf("seed %d: workers=8 objective %g, serial %g", seed, par.Objective, serial.Objective)
		}
		if !objClose(par.Stats.BestBound, serial.Stats.BestBound) {
			t.Errorf("seed %d: workers=8 bound %g, serial %g", seed, par.Stats.BestBound, serial.Stats.BestBound)
		}
		if msg := trajectoryOK(serialIncs, serial.Objective); msg != "" {
			t.Errorf("seed %d: serial trajectory: %s", seed, msg)
		}
		if msg := trajectoryOK(parIncs, par.Objective); msg != "" {
			t.Errorf("seed %d: workers=8 trajectory: %s", seed, msg)
		}
		if err := par.Validate(specs, res); err != nil {
			t.Errorf("seed %d: workers=8 schedule fails recurrence validation: %v", seed, err)
		}
	}
}

// TestParallelDeterminismMILPCorpus repeats the cross-width check on the
// raw binary-MILP corpus and additionally pins run-to-run determinism at a
// fixed width: same instance, same Workers, same node count and pivot
// count.
func TestParallelDeterminismMILPCorpus(t *testing.T) {
	for seed := int64(200); seed < 260; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := RandBinaryMILP(rng, MILPConfig{})
		serial, err := milp.Solve(p, milp.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a, err := milp.Solve(p, milp.Options{Workers: 8})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := milp.Solve(p, milp.Options{Workers: 8})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if a.Status != serial.Status {
			t.Errorf("seed %d: workers=8 status %v, serial %v", seed, a.Status, serial.Status)
			continue
		}
		if serial.Status == milp.Optimal && !objClose(a.Objective, serial.Objective) {
			t.Errorf("seed %d: workers=8 objective %g, serial %g", seed, a.Objective, serial.Objective)
		}
		if a.Stats.Nodes != b.Stats.Nodes || a.Stats.Pivots != b.Stats.Pivots ||
			a.Stats.WarmSolves != b.Stats.WarmSolves || a.Objective != b.Objective {
			t.Errorf("seed %d: workers=8 not deterministic: %+v vs %+v", seed, a.Stats, b.Stats)
		}
	}
}
