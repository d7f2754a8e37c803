// Command mdsim runs the molecular-dynamics mini-app with optimally
// scheduled in-situ analyses: it profiles the analysis kernels against the
// live simulation (§4), solves the scheduling MILP (§3.2), executes the
// recommended schedule (§5), and reports predicted vs executed analysis
// time.
//
// Usage:
//
//	mdsim [-system water|rhodopsin] [-atoms 4000] [-steps 200]
//	      [-threshold-pct 10] [-interval 20] [-ranks 4] [-out results.txt]
//	      [-trace trace.json] [-metrics metrics.txt] [-ledger run.jsonl]
//	      [-monitor] [-replan] [-perturb-sim 1.5@50]
//
// -trace writes the executed run as Chrome trace JSON (load in
// chrome://tracing or Perfetto); -metrics writes run counters in Prometheus
// text format (or a JSON snapshot when the path ends in .json); -ledger
// writes the run as a JSONL event ledger that `runmon report` replays.
// -monitor watches the run live with a runmon.Monitor: residuals against
// the solved schedule are scored as the run happens, a drift report prints
// after execution, and (with -ledger) plan and alert events are written
// into the ledger for `runmon report`.
// -replan (implies -monitor) closes the loop: drift and budget alerts
// trigger a rolling-horizon re-solve, adopted schedules swap into the
// running loop, and every decision lands in the ledger as a replan event.
// -perturb-sim FACTOR@STEP is the testing hook behind the CI replan smoke:
// from the given execution step on, each simulation step is padded to
// FACTOR times the profiled step time, so the profiles are guaranteed wrong
// mid-run.
//
// The profile → solve → run pipeline itself is internal/campaign; this
// command builds its Config and prints the result.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"insitu/internal/analysis"
	"insitu/internal/analysis/mdkernels"
	"insitu/internal/campaign"
	"insitu/internal/obs"
	"insitu/internal/replan"
	"insitu/internal/runmon"
	"insitu/internal/sim/md"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// buildSystem constructs the named system and its analysis kernels (A1-A4
// plus statistics and a speed histogram for water, R1-R3 for rhodopsin).
func buildSystem(system string, atoms, ranks int) (*md.System, []analysis.Kernel, error) {
	cfg := md.Config{NAtoms: atoms, Seed: 1}
	var sys *md.System
	var err error
	var kernels []analysis.Kernel
	add := func(k analysis.Kernel, e error) {
		if err == nil {
			err = e
			kernels = append(kernels, k)
		}
	}
	switch system {
	case "water":
		if sys, err = md.NewWaterIons(cfg); err != nil {
			return nil, nil, err
		}
		add(mdkernels.NewHydroniumRDF(sys, mdkernels.RDFConfig{Ranks: ranks}))
		add(mdkernels.NewIonRDF(sys, mdkernels.RDFConfig{Ranks: ranks}))
		add(mdkernels.NewVACF(sys, ranks))
		add(mdkernels.NewMSD(sys, ranks))
		add(mdkernels.NewStats(sys, ranks))
		add(mdkernels.NewSpeedHistogram(sys, ranks))
	case "rhodopsin":
		if sys, err = md.NewRhodopsin(cfg); err != nil {
			return nil, nil, err
		}
		add(mdkernels.NewGyration(sys, ranks))
		add(mdkernels.NewMembraneHist(sys, ranks))
		add(mdkernels.NewProteinHist(sys, ranks))
	default:
		return nil, nil, fmt.Errorf("unknown system %q", system)
	}
	return sys, kernels, err
}

// parsePerturb parses the -perturb-sim testing hook ("FACTOR@STEP").
func parsePerturb(s string) (factor float64, at int, err error) {
	if _, err := fmt.Sscanf(s, "%g@%d", &factor, &at); err != nil {
		return 0, 0, fmt.Errorf("bad -perturb-sim %q (want FACTOR@STEP, e.g. 1.5@50): %w", s, err)
	}
	if factor <= 1 || at < 1 {
		return 0, 0, fmt.Errorf("bad -perturb-sim %q: factor must exceed 1 and step must be >= 1", s)
	}
	return factor, at, nil
}

// run executes the CLI and returns the process exit code: 0 ok, 1 failure,
// 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	system := fs.String("system", "water", "system to simulate: water (A1-A4) or rhodopsin (R1-R3)")
	atoms := fs.Int("atoms", 4000, "number of particles")
	steps := fs.Int("steps", 200, "simulation steps")
	thresholdPct := fs.Float64("threshold-pct", 10, "in-situ analysis threshold as % of simulation time")
	interval := fs.Int("interval", 20, "minimum interval between analysis steps")
	ranks := fs.Int("ranks", 4, "analysis reduction ranks")
	outPath := fs.String("out", "", "write analysis output to this file (default: discard)")
	sinks := obs.SinkFlags(fs, true)
	monitor := fs.Bool("monitor", false, "watch the run live for drift against the solved schedule (prints a drift report; plan and alert events land in the ledger when -ledger is set)")
	replanOn := fs.Bool("replan", false, "reschedule the remaining run when the monitor detects drift (implies -monitor; replan events land in the ledger)")
	perturbSim := fs.String("perturb-sim", "", "pad each simulation step to FACTOR times the profiled step time from step N on (format \"1.5@50\"); a testing hook for -replan")
	render := fs.Bool("render", false, "print a Figure-3 style ASCII snapshot before running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "mdsim:", err)
		return 1
	}
	// Every flag is checked before the first simulation step.
	var factor float64
	var at int
	if *perturbSim != "" {
		var err error
		if factor, at, err = parsePerturb(*perturbSim); err != nil {
			fail(err)
			return 2
		}
	}

	sys, kernels, err := buildSystem(*system, *atoms, *ranks)
	if err != nil {
		return fail(err)
	}
	if *render {
		fmt.Fprint(stdout, sys.RenderSlice())
	}
	if err := sinks.Open(); err != nil {
		return fail(err)
	}
	var out io.Writer
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		out = f
	}

	step := func() { sys.Step(0.002) }
	// pad stays zero through probing and profiling, so -perturb-sim slows
	// executed steps only, counted from the first of them.
	var pad time.Duration
	if *perturbSim != "" {
		executed := 0
		step = func() {
			t := time.Now()
			sys.Step(0.002)
			if pad > 0 {
				if executed++; executed >= at {
					time.Sleep(pad - time.Since(t))
				}
			}
		}
	}
	cfg := campaign.Config{
		Sim:              campaign.SimFunc{AppName: "mdsim/" + *system, StepFn: step},
		Kernels:          kernels,
		Steps:            *steps,
		MinInterval:      *interval,
		ThresholdPercent: *thresholdPct,
		MemBudget:        1 << 32,
		Output:           out,
		Trace:            sinks.Trace,
		Metrics:          sinks.Metrics,
		Ledger:           sinks.Ledger,
	}
	if *monitor || *replanOn {
		cfg.Monitor = runmon.NewMonitor(nil, runmon.Config{Ledger: sinks.Ledger, Metrics: sinks.Metrics})
	}
	if *replanOn {
		cfg.Replan = &replan.Config{}
	}
	c, err := campaign.New(cfg)
	if err != nil {
		return fail(err)
	}
	p, err := c.Plan()
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "system=%s atoms=%d steps=%d sim=%.4fs/step threshold=%.3fs (%.0f%%)\n",
		*system, sys.N, *steps, p.SimSecPerStep, p.Resources.TimeThreshold, *thresholdPct)
	fmt.Fprintln(stdout, "\nmeasured analysis profiles:")
	for _, s := range p.Specs {
		fmt.Fprintf(stdout, "  %-24s ct=%.5fs ot=%.5fs fm=%d im=%d\n", s.Name, s.CT, s.OT, s.FM, s.IM)
	}
	fmt.Fprintln(stdout, "\nrecommended schedule:")
	fmt.Fprint(stdout, p.Rec.String())
	if *perturbSim != "" {
		fmt.Fprintf(stdout, "perturbation: sim steps padded to %.2fx profiled time from step %d\n", factor, at)
		pad = time.Duration(p.SimSecPerStep * factor * 1e9)
	}

	o, err := c.Execute(p)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "\nexecuted: sim=%v analyses=%v (%.1f%% of threshold)\n",
		o.Report.SimTime, o.Report.AnalysisTime, o.Report.Utilization(p.Resources)*100)
	for _, kr := range o.Report.Kernels {
		fmt.Fprintf(stdout, "  %-24s analyses=%d outputs=%d total=%v out_bytes=%d\n",
			kr.Name, kr.Analyses, kr.Outputs, kr.Total(), kr.OutBytes)
	}
	if cfg.Monitor != nil {
		fmt.Fprintln(stdout, "\nrun monitor:")
		if err := cfg.Monitor.Snapshot().WriteText(stdout); err != nil {
			return fail(err)
		}
	}
	if *replanOn {
		fmt.Fprintf(stdout, "replan: %d decision(s), %d adopted\n", len(o.Replans), o.AdoptedReplans())
	}
	if err := sinks.Close(stdout); err != nil {
		return fail(err)
	}
	return 0
}
