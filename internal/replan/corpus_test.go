package replan_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"insitu/internal/experiments"
	"insitu/internal/replan"
)

// TestCorpusAdaptiveBeatsStatic is the acceptance property of the replan
// corpus: on every perturbed scenario the adapted schedule's realized value
// is at least the static schedule's — strictly greater on the sim-inflation
// and bandwidth-degradation families — the adapted run never exceeds the
// budget threshold, and the control run never replans.
func TestCorpusAdaptiveBeatsStatic(t *testing.T) {
	strict := map[string]bool{
		"sim_inflation_1.5x":       true,
		"bandwidth_degradation_3x": true,
	}
	for _, sc := range experiments.ReplanScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			static, err := replan.Simulate(sc, false, 0)
			if err != nil {
				t.Fatal(err)
			}
			adaptive, err := replan.Simulate(sc, true, 0)
			if err != nil {
				t.Fatal(err)
			}
			if sc.Perturb == replan.PerturbNone || sc.Perturb == "" {
				if adaptive.Replans != 0 || len(adaptive.Records) != 0 {
					t.Fatalf("control run replanned: %+v", adaptive.Records)
				}
				if adaptive.Value != static.Value {
					t.Fatalf("control adapted value %.2f != static %.2f", adaptive.Value, static.Value)
				}
			} else {
				if adaptive.Replans == 0 {
					t.Fatalf("perturbed run %s never adopted a replan (records: %+v)", sc.Name, adaptive.Records)
				}
			}
			if adaptive.Value < static.Value {
				t.Fatalf("adapted value %.2f < static %.2f", adaptive.Value, static.Value)
			}
			if strict[sc.Name] && adaptive.Value <= static.Value {
				t.Fatalf("adapted value %.2f not strictly above static %.2f", adaptive.Value, static.Value)
			}
			if adaptive.Exceeded {
				t.Fatalf("adapted run exceeded the budget: spent %.4fs of %.4fs", adaptive.AnalysisSec, adaptive.BudgetSec)
			}
		})
	}
}

// TestCorpusReplanDeterminism: the same seed and perturbation must produce a
// byte-identical event stream — steps, alerts, replan decisions, re-emitted
// plans — and the same outcome every time the closed loop runs.
func TestCorpusReplanDeterminism(t *testing.T) {
	for _, sc := range experiments.ReplanScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			first, err := replan.Simulate(sc, true, 0)
			if err != nil {
				t.Fatal(err)
			}
			again, err := replan.Simulate(sc, true, 0)
			if err != nil {
				t.Fatal(err)
			}
			a, err := json.Marshal(first.Events)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(again.Events)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("event stream diverges between two runs (%d and %d events)", len(first.Events), len(again.Events))
			}
			if first.Value != again.Value || first.Replans != again.Replans {
				t.Fatalf("outcome diverges: value %.2f then %.2f, replans %d then %d",
					first.Value, again.Value, first.Replans, again.Replans)
			}
		})
	}
}
