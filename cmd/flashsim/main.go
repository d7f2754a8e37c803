// Command flashsim runs the Sedov blast mini-app (the FLASH stand-in) with
// optimally scheduled in-situ analyses F1-F3: vorticity, L1 error norms, and
// L2 error norms, optionally with importance weights (the Table-8 scenario).
//
// Usage:
//
//	flashsim [-blocks 4] [-nb 8] [-steps 100] [-threshold-pct 10]
//	         [-interval 10] [-ranks 4] [-weights 1,1,1]
//	         [-trace trace.json] [-metrics metrics.txt] [-ledger run.jsonl]
//	         [-monitor] [-replan]
//
// -monitor watches the run live for drift against the solved schedule (see
// mdsim -monitor): a drift report prints after execution, and with -ledger
// the plan and alert events land in the JSONL file for `runmon report`.
// -replan (implies -monitor) additionally re-solves the remaining horizon
// when drift or budget alerts fire and swaps adopted schedules into the
// running loop (see mdsim -replan); Sedov runs drift naturally as the blast
// refines the lattice, so no synthetic perturbation hook is needed here.
//
// The profile → solve → run pipeline itself is internal/campaign; this
// command builds its Config and prints the result.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"insitu/internal/analysis"
	"insitu/internal/analysis/amrkernels"
	"insitu/internal/campaign"
	"insitu/internal/obs"
	"insitu/internal/replan"
	"insitu/internal/runmon"
	"insitu/internal/sim/amr"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func parseWeights(s string) ([3]float64, error) {
	parts := strings.Split(s, ",")
	var w [3]float64
	if len(parts) != 3 {
		return w, fmt.Errorf("weights must be three comma-separated numbers, got %q", s)
	}
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return w, fmt.Errorf("weight %d: %w", i+1, err)
		}
		w[i] = v
	}
	return w, nil
}

// run executes the CLI and returns the process exit code: 0 ok, 1 failure,
// 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flashsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	blocks := fs.Int("blocks", 4, "blocks per side of the block lattice")
	nb := fs.Int("nb", 8, "cells per block side")
	steps := fs.Int("steps", 100, "simulation steps")
	thresholdPct := fs.Float64("threshold-pct", 10, "analysis threshold as % of simulation time")
	interval := fs.Int("interval", 10, "minimum interval between analysis steps")
	ranks := fs.Int("ranks", 4, "analysis reduction ranks")
	weights := fs.String("weights", "1,1,1", "importance weights for F1,F2,F3")
	sinks := obs.SinkFlags(fs, true)
	monitor := fs.Bool("monitor", false, "watch the run live for drift against the solved schedule (prints a drift report; plan and alert events land in the ledger when -ledger is set)")
	replanOn := fs.Bool("replan", false, "reschedule the remaining run when the monitor detects drift (implies -monitor; replan events land in the ledger)")
	render := fs.Bool("render", false, "print an ASCII density slice after the run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "flashsim:", err)
		return 1
	}
	w, err := parseWeights(*weights)
	if err != nil {
		fail(err)
		return 2
	}

	grid, err := amr.NewSedov(amr.Config{BlocksX: *blocks, NB: *nb})
	if err != nil {
		return fail(err)
	}
	// F1-F3 carry the importance weights (the Table-8 workflow); the
	// auxiliary kernels (shock tracker, radial profile) keep weight 1.
	var kernels []analysis.Kernel
	add := func(k analysis.Kernel, e error) {
		if err == nil {
			err = e
			kernels = append(kernels, k)
		}
	}
	add(amrkernels.NewVorticity(grid, *ranks))
	add(amrkernels.NewL1Norm(grid, *ranks))
	add(amrkernels.NewL2Norm(grid, *ranks))
	add(amrkernels.NewShockTracker(grid, *ranks))
	add(amrkernels.NewRadialProfile(grid, *ranks))
	if err != nil {
		return fail(err)
	}
	weightOf := map[string]float64{}
	for i, v := range w {
		weightOf[kernels[i].Name()] = v
	}

	if err := sinks.Open(); err != nil {
		return fail(err)
	}
	cfg := campaign.Config{
		Sim:              campaign.SimFunc{AppName: "flashsim/sedov", StepFn: func() { grid.StepCFL() }},
		Kernels:          kernels,
		Steps:            *steps,
		MinInterval:      *interval,
		ThresholdPercent: *thresholdPct,
		MemBudget:        1 << 32,
		Weights:          weightOf,
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
	fmt.Fprintf(stdout, "sedov blocks=%d^3 nb=%d cells=%d sim=%.5fs/step threshold=%.3fs\n",
		*blocks, *nb, grid.NumCells(), p.SimSecPerStep, p.Resources.TimeThreshold)
	fmt.Fprintf(stdout, "\nweights=%v\nrecommended schedule:\n%s", w, p.Rec.String())

	o, err := c.Execute(p)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "\nexecuted: sim=%v analyses=%v (%.1f%% of threshold)\n",
		o.Report.SimTime, o.Report.AnalysisTime, o.Report.Utilization(p.Resources)*100)
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
	fmt.Fprintf(stdout, "shock radius after %d steps: %.4f (Sedov-Taylor %.4f at t=%.4f)\n",
		grid.StepCount, grid.ShockRadius(), amr.SedovShockRadius(grid.Time), grid.Time)
	if *render {
		fmt.Fprintln(stdout, grid.RenderSlice())
	}
	return 0
}
