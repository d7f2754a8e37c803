package solvercheck

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"insitu/internal/core"
	"insitu/internal/obs"
)

// flightSolve solves the scenario at the given width with a fresh flight
// recorder attached and returns the recorded stream plus the solve result.
func flightSolve(t *testing.T, specs []core.AnalysisSpec, res core.Resources, workers int) ([]obs.SolveProgress, *core.Recommendation) {
	t.Helper()
	fr := obs.NewFlightRecorder(0)
	rec, err := core.Solve(specs, res, core.SolveOptions{Workers: workers, Flight: fr})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return fr.Snapshot(), rec
}

// TestFlightStreamDeterminism is the flight-recorder determinism corpus: for
// seeded scenarios, the recorded solveprog stream must be (a) internally
// valid, (b) byte-identical run to run at a fixed width once the wall-clock
// field is projected out (obs.DeterministicBytes), and (c) byte-identical
// across Workers=1 and Workers=8 under the canonical projection
// (obs.CanonicalBytes) — the search walks a different tree per
// width, but problem shape and terminal objective/bound/gap may not move.
// It runs in the CI race job, so the recording path is also exercised under
// the race detector here.
func TestFlightStreamDeterminism(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		specs, res := RandScenario(rng, ScenarioConfig{MaxAnalyses: 3, MaxSteps: 12})

		serial, serialRec := flightSolve(t, specs, res, 1)
		wide, wideRec := flightSolve(t, specs, res, 8)
		approxRel(t, wideRec.Objective, serialRec.Objective, objTol, fmt.Sprintf("seed %d: workers=8 objective", seed))

		for width, recs := range map[int][]obs.SolveProgress{1: serial, 8: wide} {
			if err := obs.CheckSolveProg(recs); err != nil {
				t.Errorf("seed %d workers=%d: invalid stream: %v", seed, width, err)
			}
			gap, status, ok := obs.FinalGap(recs)
			if !ok || status != "optimal" {
				t.Errorf("seed %d workers=%d: final gap undefined or non-optimal (status %q)",
					seed, width, status)
			} else if gap > objTol {
				t.Errorf("seed %d workers=%d: final gap %g not closed", seed, width, gap)
			}
		}

		// Run-to-run determinism per width: a second identical solve must
		// reproduce the full stream byte for byte (t_us excluded).
		serial2, _ := flightSolve(t, specs, res, 1)
		if !bytes.Equal(obs.DeterministicBytes(serial), obs.DeterministicBytes(serial2)) {
			t.Errorf("seed %d: workers=1 stream not deterministic run to run", seed)
		}
		wide2, _ := flightSolve(t, specs, res, 8)
		if !bytes.Equal(obs.DeterministicBytes(wide), obs.DeterministicBytes(wide2)) {
			t.Errorf("seed %d: workers=8 stream not deterministic run to run", seed)
		}

		// Cross-width: the canonical projection is width-invariant.
		if !bytes.Equal(obs.CanonicalBytes(serial), obs.CanonicalBytes(wide)) {
			t.Errorf("seed %d: canonical projection differs across widths:\n%s\nvs\n%s",
				seed, obs.CanonicalBytes(serial), obs.CanonicalBytes(wide))
		}
	}
}
