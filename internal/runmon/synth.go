package runmon

import (
	"math/rand"

	"insitu/internal/obs"
)

// Perturbation kinds a SynthRun can inject.
const (
	PerturbNone       = "none"               // control: profiles hold for the whole run
	PerturbSimTime    = "sim_inflation"      // simulation step time inflates by Factor from ChangeStep on
	PerturbOutputBW   = "output_degradation" // output durations inflate by Factor (bandwidth collapse)
	PerturbAnalysisCT = "analysis_inflation" // analysis compute time inflates by Factor
)

// SynthKernel is one synthetic analysis in a SynthRun.
type SynthKernel struct {
	Name        string  `json:"name"`
	AnalyzeSec  float64 `json:"analyze_sec"`  // true per-analysis duration
	OutputSec   float64 `json:"output_sec"`   // true per-output duration
	Every       int     `json:"every"`        // analysis on steps divisible by Every
	OutputEvery int     `json:"output_every"` // output on steps divisible by OutputEvery
	Bytes       int64   `json:"bytes"`        // bytes per output event
}

// SynthRun describes a synthetic monitored run: a base profile, a seeded
// noise level, and one injected mid-run perturbation. The golden corpus
// pins a family of these (internal/experiments.PerturbedRuns) and the
// detection tests replay them: the CUSUM detector must flag the perturbed
// variants within five steps of ChangeStep and stay silent on the control.
type SynthRun struct {
	Name         string        `json:"name"`
	App          string        `json:"app"`
	Steps        int           `json:"steps"`
	SimSec       float64       `json:"sim_sec"`       // true simulation seconds per step
	ThresholdSec float64       `json:"threshold_sec"` // analysis budget for the run
	NoiseFrac    float64       `json:"noise_frac"`    // multiplicative noise, uniform in ±NoiseFrac
	Kind         string        `json:"kind"`          // one of the Perturb* kinds
	ChangeStep   int           `json:"change_step"`   // first perturbed step (0 for PerturbNone)
	Factor       float64       `json:"factor"`        // duration multiplier from ChangeStep on
	Kernels      []SynthKernel `json:"kernels"`
}

// PlannedSec returns the run's true total analysis+output time, the number
// a scheduler's prediction would carry.
func (r SynthRun) PlannedSec() float64 {
	total := 0.0
	for _, k := range r.Kernels {
		for step := 1; step <= r.Steps; step++ {
			if k.Every > 0 && step%k.Every == 0 {
				total += k.AnalyzeSec
			}
			if k.OutputEvery > 0 && step%k.OutputEvery == 0 {
				total += k.OutputSec
			}
		}
	}
	return total
}

// Profile returns the predicted profile a monitored run of this scenario
// would write as plan events: the unperturbed truth.
func (r SynthRun) Profile() *Profile {
	p := &Profile{
		App:          r.App,
		Steps:        r.Steps,
		SimSec:       r.SimSec,
		ThresholdSec: r.ThresholdSec,
		PlannedSec:   r.PlannedSec(),
		Streams:      map[string]float64{StreamSim: r.SimSec},
	}
	for _, k := range r.Kernels {
		if k.Every > 0 {
			p.Streams[AnalyzeStream(k.Name)] = k.AnalyzeSec
		}
		if k.OutputEvery > 0 {
			p.Streams[OutputStream(k.Name)] = k.OutputSec
		}
	}
	return p
}

// SynthSeed is the fixed seed of every synthetic run's noise, so the golden
// snapshot, the detection tests and any replay synthesize byte-identical
// ledgers.
const SynthSeed int64 = 2026

// Events synthesizes the run's ledger deterministically from SynthSeed: plan
// events first (the ledger self-describes its predictions), then run_start,
// the per-step step/analysis/output events with seeded multiplicative noise
// and the injected perturbation, then run_end. Durations are microseconds,
// as in real ledgers.
func (r SynthRun) Events() []obs.LedgerEvent {
	rng := rand.New(rand.NewSource(SynthSeed))
	noise := func() float64 {
		if r.NoiseFrac <= 0 {
			return 1
		}
		return 1 + r.NoiseFrac*(2*rng.Float64()-1)
	}
	perturbed := func(step int, kind string) float64 {
		if r.Kind == kind && r.ChangeStep > 0 && step >= r.ChangeStep && r.Factor > 0 {
			return r.Factor
		}
		return 1
	}
	us := func(sec float64) float64 { return sec * 1e6 }

	events := append([]obs.LedgerEvent(nil), r.Profile().PlanEvents()...)
	events = append(events, obs.LedgerEvent{
		Type: obs.LedgerRunStart, Name: r.App,
		Args: map[string]float64{"steps": float64(r.Steps), "kernels": float64(len(r.Kernels))},
	})
	for step := 1; step <= r.Steps; step++ {
		events = append(events, obs.LedgerEvent{
			Type: obs.LedgerStep, Step: step,
			Dur: us(r.SimSec * noise() * perturbed(step, PerturbSimTime)),
		})
		for _, k := range r.Kernels {
			if k.Every > 0 && step%k.Every == 0 {
				events = append(events, obs.LedgerEvent{
					Type: obs.LedgerAnalysis, Name: k.Name, Step: step,
					Dur: us(k.AnalyzeSec * noise() * perturbed(step, PerturbAnalysisCT)),
				})
			}
			if k.OutputEvery > 0 && step%k.OutputEvery == 0 {
				events = append(events, obs.LedgerEvent{
					Type: obs.LedgerOutput, Name: k.Name, Step: step,
					Dur:   us(k.OutputSec * noise() * perturbed(step, PerturbOutputBW)),
					Bytes: k.Bytes,
				})
			}
		}
	}
	events = append(events, obs.LedgerEvent{Type: obs.LedgerRunEnd})
	return events
}
