// Command experiments regenerates every table and figure of the paper's
// evaluation section and prints them to stdout.
//
// Usage:
//
//	experiments [-only table5] [-quick] [-verify] [-golden dir]
//	            [-trace trace.json] [-metrics metrics.txt]
//
// -only selects a single experiment (table4..table8, figure2, figure4,
// figure5, ablations, moldable, solver); the default runs everything.
// -quick shrinks the measured (laptop-scale) experiments so the full suite
// finishes in seconds. -verify checks the scheduling experiments against the
// paper's published rows and exits nonzero on any mismatch. -golden writes
// the deterministic golden snapshots (the same files the regression test in
// internal/experiments compares against) to the given directory and exits.
// -trace records one span per experiment section as Chrome trace JSON;
// -metrics writes section counters and durations in Prometheus text format
// (or a JSON snapshot when the path ends in .json).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"insitu/internal/core"
	"insitu/internal/experiments"
	"insitu/internal/machine"
	"insitu/internal/moldable"
	"insitu/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI and returns the process exit code: 0 ok, 1 failure,
// 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "run a single experiment (table4..table8, figure2, figure4, figure5, ablations, moldable, solver)")
	quick := fs.Bool("quick", false, "shrink measured experiments for a fast pass")
	verify := fs.Bool("verify", false, "check the scheduling experiments against the paper's published values and exit")
	golden := fs.String("golden", "", "write the golden snapshot files to this directory and exit")
	sinks := obs.SinkFlags(fs, false)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *golden != "" {
		if err := experiments.WriteGolden(*golden); err != nil {
			fmt.Fprintf(stderr, "experiments: golden: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote golden snapshots to %s\n", *golden)
		return 0
	}

	if *verify {
		checks, err := experiments.VerifyAll()
		if err != nil {
			fmt.Fprintf(stderr, "experiments: verify: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, experiments.FormatChecks(checks))
		for _, c := range checks {
			if !c.Pass {
				return 1
			}
		}
		return 0
	}

	if err := sinks.Open(); err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 1
	}
	tracer, reg := sinks.Trace, sinks.Metrics
	tracer.SetProcessName("experiments")
	tracer.SetTrackName(0, "sections")

	// section runs one experiment when selected, as one trace span and one
	// duration observation. Both handles are nil-safe, so uninstrumented
	// runs take the same path. The first failure stops later sections.
	sectionErr := ""
	section := func(name string, fn func() error) {
		if sectionErr != "" || (*only != "" && *only != name) {
			return
		}
		sp := tracer.Begin(name, "experiment")
		t0 := time.Now()
		err := fn()
		dt := time.Since(t0)
		sp.End()
		if err != nil {
			sectionErr = fmt.Sprintf("experiments: %s: %v", name, err)
			return
		}
		reg.Counter("experiments_sections_total", nil).Inc()
		reg.Histogram("experiments_section_seconds", nil, obs.Labels{"section": name}).Observe(dt.Seconds())
	}

	section("table4", func() error {
		cfg := experiments.Table4Config{}
		if *quick {
			cfg = experiments.Table4Config{Atoms: []int{3000, 8000}, Steps: 30, OutputEvery: 10}
		}
		rows, err := experiments.Table4(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatTable4(rows))
		return nil
	})
	section("table5", func() error {
		rows, err := experiments.Table5()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatTable5(rows))
		return nil
	})
	section("table6", func() error {
		rows, err := experiments.Table6()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatTable6(rows))
		return nil
	})
	section("table7", func() error {
		rows, err := experiments.Table7()
		if err != nil {
			return err
		}
		nvram, err := experiments.Table7NVRAM()
		if err != nil {
			return fmt.Errorf("nvram: %w", err)
		}
		rows = append(rows, nvram)
		out := experiments.FormatTable7(rows)
		fmt.Fprintln(stdout, out+"(last row: outputs redirected to an NVRAM burst buffer, §5.3.5 what-if)")
		fmt.Fprintln(stdout)
		return nil
	})
	section("table8", func() error {
		rows, err := experiments.Table8()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatTable8(rows))
		return nil
	})
	section("figure2", func() error {
		cfg := experiments.Figure2Config{}
		if *quick {
			cfg = experiments.Figure2Config{Sizes: []int{1500, 3000, 6000}, StepsPerSample: 4}
		}
		r, err := experiments.Figure2(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatFigure2(r))
		return nil
	})
	section("figure4", func() error {
		atoms := 4000
		if *quick {
			atoms = 3000
		}
		rows, err := experiments.Figure4(atoms)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatFigure4(rows))
		return nil
	})
	section("figure5", func() error {
		rows, err := experiments.Figure5()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatFigure5(rows))
		return nil
	})
	section("ablations", func() error {
		rows, err := experiments.MemorySweep()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatMemorySweep(rows))
		v, err := experiments.ValidateCoupling()
		if err != nil {
			return fmt.Errorf("coupling validation: %w", err)
		}
		fmt.Fprintln(stdout, experiments.FormatCouplingValidation(v))
		return nil
	})
	section("moldable", func() error {
		var cands []moldable.Candidate
		for _, ranks := range []int{2048, 4096, 8192, 16384, 32768} {
			all := experiments.WaterIonsSpecs(ranks)
			cands = append(cands, moldable.Candidate{
				Ranks:         ranks,
				SimSecPerStep: experiments.WaterIonsSimSecPerStep(ranks),
				Specs:         []core.AnalysisSpec{all[0], all[1], all[3]},
			})
		}
		cfg := moldable.Config{Steps: 1000, ThresholdPct: 10, MemThreshold: 12 << 30}
		for _, obj := range []moldable.Objective{moldable.MaxScience, moldable.MaxSciencePerNodeHour, moldable.MinRuntime} {
			advice, err := moldable.Advise(machine.Mira(), cands, cfg, obj)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, advice.String())
			fmt.Fprintln(stdout)
		}
		return nil
	})
	section("solver", func() error {
		min, max, err := experiments.SolverRuntime()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Solver runtime across Tables 5-6 instances: %v - %v (paper: 0.17 s - 1.36 s with CPLEX 12.6.1)\n", min, max)
		return nil
	})

	if sectionErr != "" {
		fmt.Fprintln(stderr, sectionErr)
		return 1
	}

	if err := sinks.Close(stdout); err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 1
	}
	return 0
}
