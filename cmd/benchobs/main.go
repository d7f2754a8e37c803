// Command benchobs is the performance observatory's front door: it runs the
// canonical benchmark suites, compares runs against the committed baselines,
// serves live metrics and profiles over HTTP, and reconstructs per-step
// timelines from JSONL run ledgers.
//
// Usage:
//
//	benchobs run [-quick] [-suite name] [-out dir]
//	benchobs compare -current dir [-baseline dir] [-slack f] [-json file]
//	benchobs check [-dir dir] [-min-workers n] [-min-count n] [-max-fallback-ratio f]
//	benchobs serve [-addr host:port]
//	benchobs summarize -ledger run.jsonl
//	benchobs flightcheck -ledger run.jsonl
//	benchobs runs [-dir dir] [-filter s] [-json]
//
// run executes the solver, pipeline, and iosim suites and writes one
// BENCH_<suite>.json per suite (the files committed at the repo root are its
// output). compare diffs a run against a baseline using the per-metric
// relative thresholds recorded in the baseline file and exits 1 when any
// gated metric regresses. check audits a solver suite file's recorded
// metadata: every workload carrying a solver_workers metric must have run at
// least -min-workers wide, at least -min-count such workloads must exist,
// and workloads recording warm_solves/fallback_colds must keep their warm
// fallback fraction at or below -max-fallback-ratio — so CI fails if the
// suite silently falls back to a wave of one or the warm re-solves stop
// sticking. serve
// loops the instrumented pipeline workload forever and exposes the live
// registry at /metrics (Prometheus text), /metrics.json, and the process at
// /debug/pprof/; it also runs one flight-recorded paper solve at startup so
// /solve.json and /solve show a real gap-closure curve. On SIGINT/SIGTERM it
// shuts down gracefully, draining in-flight scrapes and the workload loop
// before exiting. summarize replays a run ledger into a per-step activity
// table (including solver gap timelines when the ledger carries solveprog
// events). flightcheck validates every solver flight stream in a ledger —
// monotone invariants via obs.CheckSolveProg, plus each stream must close its
// gap — and exits 1 on any violation or when no stream exists, making it a CI
// gate for -flight output. runs scans a directory of *.jsonl ledgers into the
// cross-run registry and prints one row per run (or JSON with -json).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"insitu/internal/obs"
	"insitu/internal/perfbench"
)

const usageText = `usage: benchobs <command> [flags]

commands:
  run        run the canonical suites and write BENCH_<suite>.json files
  compare    diff a run against baseline files; exit 1 on any regression
  check      audit a solver suite's recorded pool width; exit 1 if serial
  serve      expose live /metrics, /solve, and /debug/pprof over a looping workload
  summarize  reconstruct per-step timelines from a JSONL run ledger
  flightcheck  validate the solver flight streams in a ledger; exit 1 on violation
  runs       scan a directory of run ledgers into the cross-run registry

run 'benchobs <command> -h' for the flags of each command.
`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches to a subcommand and returns the process exit code: 0 ok,
// 1 failure (including benchmark regressions), 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usageText)
		return 2
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], stdout, stderr)
	case "compare":
		return cmdCompare(args[1:], stdout, stderr)
	case "check":
		return cmdCheck(args[1:], stdout, stderr)
	case "serve":
		return cmdServe(args[1:], stdout, stderr)
	case "summarize":
		return cmdSummarize(args[1:], stdout, stderr)
	case "flightcheck":
		return cmdFlightCheck(args[1:], stdout, stderr)
	case "runs":
		return cmdRuns(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stdout, usageText)
		return 0
	}
	fmt.Fprintf(stderr, "benchobs: unknown command %q\n%s", args[0], usageText)
	return 2
}

// suiteList resolves the -suite flag: empty means every canonical suite.
func suiteList(only string) ([]string, error) {
	if only == "" {
		return perfbench.SuiteNames, nil
	}
	for _, s := range perfbench.SuiteNames {
		if s == only {
			return []string{only}, nil
		}
	}
	return nil, fmt.Errorf("unknown suite %q (have %v)", only, perfbench.SuiteNames)
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchobs run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "fewer repetitions, no outlier trim (CI smoke settings)")
	out := fs.String("out", ".", "directory to write BENCH_<suite>.json files into")
	only := fs.String("suite", "", "run a single suite (solver, pipeline, iosim)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names, err := suiteList(*only)
	if err != nil {
		fmt.Fprintf(stderr, "benchobs: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchobs: %v\n", err)
		return 1
	}
	r := perfbench.NewRunner()
	if *quick {
		r = perfbench.QuickRunner()
	}
	for _, name := range names {
		ws, err := perfbench.Workloads(name)
		if err != nil {
			fmt.Fprintf(stderr, "benchobs: %v\n", err)
			return 2
		}
		s, err := r.RunSuite(name, ws, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchobs: suite %s: %v\n", name, err)
			return 1
		}
		path := filepath.Join(*out, perfbench.BenchFileName(name))
		if err := s.WriteFile(path); err != nil {
			fmt.Fprintf(stderr, "benchobs: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (%d workloads)\n", path, len(s.Workloads))
	}
	return 0
}

func cmdCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchobs compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", ".", "directory holding the baseline BENCH_<suite>.json files")
	current := fs.String("current", "", "directory holding the run under test (required)")
	slack := fs.Float64("slack", 1, "multiplier widening every metric's threshold (CI uses 2)")
	jsonOut := fs.String("json", "", "also write the machine-readable diff (JSON) to this file")
	only := fs.String("suite", "", "compare a single suite (solver, pipeline, iosim)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *current == "" {
		fmt.Fprintln(stderr, "benchobs: compare needs -current")
		fs.Usage()
		return 2
	}
	names, err := suiteList(*only)
	if err != nil {
		fmt.Fprintf(stderr, "benchobs: %v\n", err)
		return 2
	}
	var results []perfbench.CompareResult
	regressions := 0
	for _, name := range names {
		file := perfbench.BenchFileName(name)
		base, err := perfbench.ReadFile(filepath.Join(*baseline, file))
		if err != nil {
			fmt.Fprintf(stderr, "benchobs: baseline: %v\n", err)
			return 2
		}
		cur, err := perfbench.ReadFile(filepath.Join(*current, file))
		if err != nil {
			fmt.Fprintf(stderr, "benchobs: current: %v\n", err)
			return 2
		}
		res := perfbench.Compare(base, cur, *slack)
		if err := res.WriteTable(stdout); err != nil {
			fmt.Fprintf(stderr, "benchobs: %v\n", err)
			return 1
		}
		regressions += len(res.Regressions())
		results = append(results, res)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchobs: %v\n", err)
			return 1
		}
	}
	if regressions > 0 {
		fmt.Fprintf(stderr, "benchobs: %d regression(s) past threshold\n", regressions)
		return 1
	}
	return 0
}

// cmdCheck audits the solver suite's recorded parallel metadata. Workloads
// without a solver_workers metric (single-solve micro workloads, the scaling
// sweeps that pin their own widths) are ignored; the rest must have recorded
// a pool at least -min-workers wide, and at least -min-count of them must
// exist so the gate cannot pass vacuously. Workloads that additionally
// record warm_solves/fallback_colds are audited for warm-resolve health:
// the fallback fraction fallback_colds/(warm_solves+fallback_colds) must
// stay at or below -max-fallback-ratio, so CI fails if the dual-simplex
// warm re-solves silently stop surviving the branching pattern and every
// node quietly pays a cold solve again.
func cmdCheck(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchobs check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", ".", "directory holding the BENCH_<suite>.json files to audit")
	minWorkers := fs.Float64("min-workers", 2, "minimum recorded solver_workers per workload")
	minCount := fs.Int("min-count", 1, "minimum number of workloads carrying solver_workers")
	maxFallback := fs.Float64("max-fallback-ratio", 0.2, "maximum fallback_colds/(warm_solves+fallback_colds) per workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	path := filepath.Join(*dir, perfbench.BenchFileName(perfbench.SuiteSolver))
	suite, err := perfbench.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "benchobs: %v\n", err)
		return 1
	}
	count, bad := 0, 0
	warmAudited, coldWarm := 0, 0
	for _, w := range suite.Workloads {
		m := w.Metric("solver_workers")
		if m == nil {
			continue
		}
		count++
		status := "ok"
		if m.Value < *minWorkers {
			status = "SERIAL"
			bad++
		}
		line := fmt.Sprintf("  %-40s solver_workers=%g", w.Name, m.Value)
		if warm, fb := w.Metric("warm_solves"), w.Metric("fallback_colds"); warm != nil && fb != nil {
			if total := warm.Value + fb.Value; total > 0 {
				warmAudited++
				ratio := fb.Value / total
				line += fmt.Sprintf(" fallback_ratio=%.3f", ratio)
				if ratio > *maxFallback {
					status = "COLD"
					coldWarm++
				}
			}
		}
		fmt.Fprintf(stdout, "%s %s\n", line, status)
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "benchobs: %d workload(s) in %s ran below %g workers\n", bad, path, *minWorkers)
		return 1
	}
	if coldWarm > 0 {
		fmt.Fprintf(stderr, "benchobs: %d workload(s) in %s exceed the warm-resolve fallback ratio %g\n", coldWarm, path, *maxFallback)
		return 1
	}
	if count < *minCount {
		fmt.Fprintf(stderr, "benchobs: only %d workload(s) in %s record solver_workers, want >= %d\n", count, path, *minCount)
		return 1
	}
	fmt.Fprintf(stdout, "benchobs: %s: %d workload(s) at >= %g workers, %d warm-resolve ratio(s) <= %g\n",
		path, count, *minWorkers, warmAudited, *maxFallback)
	return 0
}

// serveLoop drives the instrumented pipeline workload against reg until ctx
// is canceled (or, when iterations > 0, for that many runs), so the served
// /metrics endpoint always has live counters moving underneath it.
func serveLoop(ctx context.Context, reg *obs.Registry, iterations int) error {
	for n := 0; iterations == 0 || n < iterations; n++ {
		if _, err := perfbench.InstrumentedPipeline(nil, reg, nil).Run(); err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return nil
		default:
		}
	}
	return nil
}

func cmdServe(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchobs serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8089", "listen address for /metrics and /debug/pprof")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "benchobs: %v\n", err)
		return 1
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	return runServe(ctx, ln, stdout, stderr)
}

// runServe drives the workload loop and the HTTP endpoints until ctx is
// canceled (SIGINT/SIGTERM in cmdServe), then shuts the server down
// gracefully: in-flight scrapes finish, the workload loop stops at its next
// iteration boundary, and both are drained before returning — the shared
// obs.ServeLoop shape all the repo's daemons sit on.
func runServe(ctx context.Context, ln net.Listener, stdout, stderr io.Writer) int {
	reg := obs.NewRegistry()
	// One flight-recorded paper solve so /solve.json and /solve expose a real
	// gap-closure curve; the solve is fast and deterministic, and a failure
	// only leaves the flight pages empty.
	flight := obs.NewFlightRecorder(0)
	if err := perfbench.FlightSolve(flight); err != nil {
		fmt.Fprintf(stderr, "benchobs: flight solve: %v\n", err)
	}
	mux := obs.NewServeMux(reg)
	obs.AddFlightRoutes(mux, flight)
	fmt.Fprintf(stdout, "benchobs: serving http://%s/metrics (also /metrics.json, /solve, /solve.json, /debug/pprof/)\n", ln.Addr())
	err := obs.ServeLoop(ctx, ln, mux, func(bgCtx context.Context) error {
		if err := serveLoop(bgCtx, reg, 0); err != nil {
			return fmt.Errorf("workload loop: %w", err)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(stderr, "benchobs: %v\n", err)
		return 1
	}
	return 0
}

func cmdSummarize(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchobs summarize", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ledger := fs.String("ledger", "", "JSONL run ledger to summarize (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	path := *ledger
	if path == "" {
		path = fs.Arg(0)
	}
	if path == "" {
		fmt.Fprintln(stderr, "benchobs: summarize needs -ledger file.jsonl")
		fs.Usage()
		return 2
	}
	events, err := obs.ReadLedgerFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "benchobs: %v\n", err)
		return 1
	}
	if len(events) == 0 {
		fmt.Fprintf(stderr, "benchobs: ledger %s: no events\n", path)
		return 1
	}
	if err := obs.SummarizeLedger(events).WriteTimeline(stdout); err != nil {
		fmt.Fprintf(stderr, "benchobs: %v\n", err)
		return 1
	}
	return 0
}

// cmdFlightCheck validates every solver flight stream a ledger carries: the
// monotone stream invariants (CheckSolveProg), and — unless -allow-gap — that
// each stream ends optimal with the gap closed. It is the CI gate behind
// `insitu-sched -flight`: a recorder or solver regression that breaks the
// stream contract fails the build instead of silently corrupting telemetry.
func cmdFlightCheck(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchobs flightcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ledger := fs.String("ledger", "", "JSONL ledger holding solveprog events (required)")
	allowGap := fs.Bool("allow-gap", false, "accept streams that end non-optimal or with an open gap")
	tol := fs.Float64("tol", 1e-6, "absolute gap tolerance for a closed final gap")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	path := *ledger
	if path == "" {
		path = fs.Arg(0)
	}
	if path == "" {
		fmt.Fprintln(stderr, "benchobs: flightcheck needs -ledger file.jsonl")
		fs.Usage()
		return 2
	}
	events, err := obs.ReadLedgerFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "benchobs: %v\n", err)
		return 1
	}
	runs := obs.GroupSolveProgEvents(events)
	if len(runs) == 0 {
		fmt.Fprintf(stderr, "benchobs: ledger %s: no solveprog events\n", path)
		return 1
	}
	bad := 0
	for i, r := range runs {
		name := r.Name
		if name == "" {
			name = fmt.Sprintf("solve[%d]", i)
		}
		if err := obs.CheckSolveProg(r.Records); err != nil {
			fmt.Fprintf(stdout, "  %-32s %4d event(s) BAD: %v\n", name, len(r.Records), err)
			bad++
			continue
		}
		gap, status, ok := obs.FinalGap(r.Records)
		switch {
		case *allowGap:
			fmt.Fprintf(stdout, "  %-32s %4d event(s) ok (%s)\n", name, len(r.Records), orUnknown(status))
		case !ok:
			fmt.Fprintf(stdout, "  %-32s %4d event(s) BAD: no end event with a defined gap\n", name, len(r.Records))
			bad++
		case status != "optimal" || gap > *tol:
			fmt.Fprintf(stdout, "  %-32s %4d event(s) BAD: status %s, final gap %.4g\n", name, len(r.Records), orUnknown(status), gap)
			bad++
		default:
			fmt.Fprintf(stdout, "  %-32s %4d event(s) ok (optimal, gap %.4g)\n", name, len(r.Records), gap)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "benchobs: %d of %d flight stream(s) in %s failed validation\n", bad, len(runs), path)
		return 1
	}
	fmt.Fprintf(stdout, "benchobs: %s: %d flight stream(s) ok\n", path, len(runs))
	return 0
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

// cmdRuns scans a directory of *.jsonl run ledgers into the cross-run
// registry: one row per run with its step/replan/solve counts, per-solve and
// per-flight summaries, and the cross-run history with trends.
func cmdRuns(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchobs runs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", ".", "directory holding *.jsonl run ledgers")
	filter := fs.String("filter", "", "keep runs whose app, path, solve, or flight name contains this")
	jsonOut := fs.Bool("json", false, "emit the registry as JSON instead of the table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	reg, err := obs.ScanRuns(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "benchobs: %v\n", err)
		return 1
	}
	for _, w := range reg.Warnings {
		fmt.Fprintf(stderr, "benchobs: warning: %s\n", w)
	}
	reg = reg.Filter(*filter)
	if len(reg.Runs) == 0 {
		fmt.Fprintf(stderr, "benchobs: no runs found in %s\n", *dir)
		return 1
	}
	if *jsonOut {
		if err := reg.WriteJSON(stdout); err != nil {
			fmt.Fprintf(stderr, "benchobs: %v\n", err)
			return 1
		}
		return 0
	}
	if err := reg.WriteTable(stdout); err != nil {
		fmt.Fprintf(stderr, "benchobs: %v\n", err)
		return 1
	}
	return 0
}
