package experiments

import "insitu/internal/runmon"

// PerturbedRunSeed is the seed of the perturbed corpora: the synthetic runs
// draw their noise from it, and the replan scenarios share it.
const PerturbedRunSeed = runmon.SynthSeed

// PerturbedRuns is the perturbed-profile scenario family of the golden
// corpus: one control run whose profiles hold for the whole run, plus
// mid-run perturbations of each monitored stream class — simulation
// step-time inflation, output-bandwidth degradation, and analysis compute
// inflation. The runmon detection tests replay these deterministic runs and
// require the CUSUM detector to flag every perturbed variant within five
// steps of its change point while staying silent on the control.
func PerturbedRuns() []runmon.SynthRun {
	kernels := []runmon.SynthKernel{
		{Name: "rdf", AnalyzeSec: 0.004, OutputSec: 0.002, Every: 2, OutputEvery: 2, Bytes: 4 << 20},
		{Name: "msd", AnalyzeSec: 0.002, OutputSec: 0.001, Every: 4, OutputEvery: 4, Bytes: 1 << 20},
	}
	base := runmon.SynthRun{
		App: "mdsim/perturbed", Steps: 100,
		SimSec: 0.010, ThresholdSec: 2.0, NoiseFrac: 0.02,
		Kernels: kernels,
	}
	variant := func(name, kind string, changeStep int, factor float64) runmon.SynthRun {
		r := base
		r.Name = name
		r.Kind = kind
		r.ChangeStep = changeStep
		r.Factor = factor
		return r
	}
	control := base
	control.Name = "control"
	control.Kind = runmon.PerturbNone
	return []runmon.SynthRun{
		control,
		// Mid-run step-time inflation: the simulation slows to 1.5x at
		// step 50 (grid refinement, contention on the node).
		variant("sim_inflation_1.5x", runmon.PerturbSimTime, 50, 1.5),
		// Output-bandwidth degradation: every output takes 3x longer from
		// step 50 on (storage contention collapses the bandwidth).
		variant("output_degradation_3x", runmon.PerturbOutputBW, 50, 3),
		// Analysis compute inflation: kernels take 2x from step 40 on.
		variant("analysis_inflation_2x", runmon.PerturbAnalysisCT, 40, 2),
	}
}
