package runmon_test

import (
	"strings"
	"testing"

	"insitu/internal/experiments"
	"insitu/internal/runmon"
)

// streamMatchesKind reports whether a residual stream belongs to the class a
// perturbation kind inflates.
func streamMatchesKind(stream, kind string) bool {
	switch kind {
	case runmon.PerturbSimTime:
		return stream == runmon.StreamSim
	case runmon.PerturbOutputBW:
		return strings.HasSuffix(stream, "/output")
	case runmon.PerturbAnalysisCT:
		return strings.HasSuffix(stream, "/analyze")
	}
	return false
}

// TestPerturbedCorpusDetection is the acceptance test of the drift detector
// against the golden perturbed-profile corpus: every perturbed variant must
// be flagged within five steps of its injected change point, on a stream of
// the perturbed class only, and the unperturbed control must stay silent.
// The corpus is seeded and the detectors are pure math, so the test is
// deterministic (and runs under -race in CI).
func TestPerturbedCorpusDetection(t *testing.T) {
	runs := experiments.PerturbedRuns()
	if len(runs) < 4 {
		t.Fatalf("corpus has %d runs, want the control plus 3 perturbations", len(runs))
	}
	for _, r := range runs {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			s := runmon.Analyze(r.Events(), nil, runmon.Config{})
			if !s.Ended || s.Step != r.Steps {
				t.Fatalf("snapshot = step %d ended %v, want full %d-step run", s.Step, s.Ended, r.Steps)
			}
			if r.Kind == runmon.PerturbNone {
				if len(s.Alerts) != 0 {
					t.Fatalf("control run raised alerts: %+v", s.Alerts)
				}
				return
			}
			if s.DriftCount() == 0 {
				t.Fatalf("%s perturbation never detected", r.Kind)
			}
			for _, a := range s.Alerts {
				if a.Kind != runmon.AlertDrift {
					continue
				}
				if !streamMatchesKind(a.Stream, r.Kind) {
					t.Errorf("drift alert on unperturbed stream %s: %+v", a.Stream, a)
				}
				if a.Step < r.ChangeStep || a.Step > r.ChangeStep+5 {
					t.Errorf("stream %s flagged at step %d, want within 5 of %d", a.Stream, a.Step, r.ChangeStep)
				}
				if a.Direction != "slow" {
					t.Errorf("stream %s direction = %q, want slow", a.Stream, a.Direction)
				}
			}
		})
	}
}

// TestPerturbedCorpusEventsDeterministic guards the golden snapshot's
// premise: the same run and seed synthesize byte-identical event streams.
func TestPerturbedCorpusEventsDeterministic(t *testing.T) {
	r := experiments.PerturbedRuns()[1]
	a := r.Events()
	b := r.Events()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Dur != b[i].Dur || a[i].Type != b[i].Type || a[i].Step != b[i].Step {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
