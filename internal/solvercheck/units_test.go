package solvercheck

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"insitu/internal/core"
	"insitu/internal/milp"
	"insitu/internal/obs"
)

// approxRel fails the test unless got and want agree to a relative rel (of
// the larger magnitude, and absolutely below 1), naming the caller's line.
func approxRel(t testing.TB, got, want, rel float64, what string) {
	t.Helper()
	if math.Abs(got-want) <= rel*math.Max(1, math.Max(math.Abs(got), math.Abs(want))) {
		return
	}
	_, file, line, _ := runtime.Caller(1)
	t.Fatalf("%s:%d: %s = %v, want %v (relative %g)", filepath.Base(file), line, what, got, want, rel)
}

// restateMemory returns the scenario with every memory figure counted in
// units of unit bytes, which must divide each of them; bandwidth follows, so
// derived output times do not move.
func restateMemory(specs []core.AnalysisSpec, res core.Resources, unit int64) ([]core.AnalysisSpec, core.Resources) {
	out := append([]core.AnalysisSpec(nil), specs...)
	for i := range out {
		a := &out[i]
		a.FM, a.IM, a.CM, a.OM = a.FM/unit, a.IM/unit, a.CM/unit, a.OM/unit
	}
	res.MemThreshold /= unit
	res.Bandwidth /= float64(unit)
	return out, res
}

// restateTime returns the scenario with every time figure in units of 1/f
// seconds.
func restateTime(specs []core.AnalysisSpec, res core.Resources, f float64) ([]core.AnalysisSpec, core.Resources) {
	out := append([]core.AnalysisSpec(nil), specs...)
	for i := range out {
		a := &out[i]
		a.FT, a.IT, a.CT, a.OT = a.FT*f, a.IT*f, a.CT*f, a.OT*f
	}
	res.TimeThreshold *= f
	res.Bandwidth /= f
	return out, res
}

// modelFlight solves a compact model with milp at the default width and
// returns its flight stream.
func modelFlight(t *testing.T, p *milp.Problem) []obs.SolveProgress {
	t.Helper()
	var recs []obs.SolveProgress
	if _, err := milp.Solve(p, milp.Options{Progress: func(r obs.SolveProgress) { recs = append(recs, r) }}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// inGiB returns a copy of the compact model p with its memory row divided by
// 2^30: the row restated in GiB, which core's int64 byte counts cannot hold.
func inGiB(t *testing.T, p *milp.Problem) *milp.Problem {
	t.Helper()
	q := &milp.Problem{LP: p.LP.Clone(), Integer: p.Integer}
	for r := range q.LP.Constraints {
		if c := &q.LP.Constraints[r]; c.Name == "memory-threshold" {
			for k := range c.Coef {
				c.Coef[k] /= 1 << 30
			}
			c.RHS /= 1 << 30
			return q
		}
	}
	t.Fatal("compact model has no memory row")
	return nil
}

// TestUnitsInvariance is the metamorphic units test on the badly scaled
// family. lp divides each row by a power of two near its RHS, so restating
// memory in MiB (core's input) or GiB (the model's row) hands the solver the
// same scaled rows bit for bit: the whole flight stream, and with it the
// width-invariant projection and the schedule, must come out byte-identical.
// Seconds to milliseconds is not a power of two, so that restatement must
// reach the same objective, though a tie may be broken the other way.
func TestUnitsInvariance(t *testing.T) {
	const mib = int64(1) << 20
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		specs, res := ScaledScenario(rng, ScenarioConfig{MaxAnalyses: 4, MaxSteps: 16})
		want, wantRec := flightSolve(t, specs, res, 1)

		mSpecs, mRes := restateMemory(specs, res, mib)
		got, gotRec := flightSolve(t, mSpecs, mRes, 1)
		if !bytes.Equal(obs.CanonicalBytes(got), obs.CanonicalBytes(want)) ||
			!bytes.Equal(obs.DeterministicBytes(got), obs.DeterministicBytes(want)) {
			t.Fatalf("seed %d: memory in MiB moves the flight stream:\n%s\nvs bytes\n%s",
				seed, obs.DeterministicBytes(got), obs.DeterministicBytes(want))
		}
		for i, s := range gotRec.Schedules {
			w := wantRec.Schedules[i]
			if s.Count != w.Count || s.OutputEvery != w.OutputEvery || s.PeakMemory*mib != w.PeakMemory {
				t.Fatalf("seed %d: memory in MiB schedules %s as %+v, in bytes %+v", seed, s.Name, s, w)
			}
		}

		model, err := core.CompactModel(specs, res, core.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if model.LP.NumVars() == 0 {
			continue // no mode fits, and the model has no memory row
		}
		bytesFlight := modelFlight(t, model)
		if gib := modelFlight(t, inGiB(t, model)); !bytes.Equal(obs.DeterministicBytes(gib), obs.DeterministicBytes(bytesFlight)) {
			t.Fatalf("seed %d: the memory row in GiB moves the flight stream:\n%s\nvs bytes\n%s",
				seed, obs.DeterministicBytes(gib), obs.DeterministicBytes(bytesFlight))
		}

		tSpecs, tRes := restateTime(specs, res, 1000)
		ms, err := core.Solve(tSpecs, tRes, core.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		approxRel(t, ms.Objective, wantRec.Objective, objTol, "objective with time in ms")
	}
}

// TestScaledScenariosCertified runs the revised-simplex certificate walk on
// the badly scaled family's compact models, and the scheduling oracle suite,
// brute force included, on instances of it small enough for the brute force.
func TestScaledScenariosCertified(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		specs, res := ScaledScenario(rng, ScenarioConfig{MaxAnalyses: 4, MaxSteps: 16})
		model, err := core.CompactModel(specs, res, core.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if model.LP.NumVars() > 0 { // else no mode fits: nothing for the simplex to walk
			if err := CheckRevised(rng, model.LP); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		specs, res = ScaledScenario(rng, ScenarioConfig{MaxAnalyses: 2, MaxSteps: 10})
		if err := CheckScenario(rng, specs, res, ScenarioChecks{BruteForce: true}); err != nil {
			t.Fatalf("seed %d (specs %+v res %+v): %v", seed, specs, res, err)
		}
	}
}
