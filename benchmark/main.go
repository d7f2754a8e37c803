// Command benchmark is the repository's claim instrument: one seeded,
// layer-attributed benchmark of the solve, service and closed-loop paths.
// BENCHMARK.json at the repository root names its workloads and metrics;
// README.md in this directory explains how to read them.
//
//	go run ./benchmark                         every workload, one child process each
//	go run ./benchmark -workload paper_sweep   one workload, in this process
//	go run ./benchmark -trace 1 ...            the traced run: per-layer metrics
//	go run ./benchmark compare A.json B.json   apply the bounds between two result files
//
// A run prints its metrics by name and, as the last line of standard output,
// one JSON object {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"insitu/internal/core"
)

// Seeds: numbers are recorded at defaultSeed; a claim must also hold at
// checkSeed, which nobody tunes against.
const (
	defaultSeed = 2015
	checkSeed   = 807591
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:], stdout, stderr)
		case "refs":
			return refsMain(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this workload in this process (default: every workload, one child process each)")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (claims must also hold at the check seed %d)", checkSeed))
	seconds := fs.Float64("seconds", 10, "length of the measured phase; passes over the op list are never cut short")
	trace := fs.Int("trace", 0, "1: the traced run (per-layer metrics, spans written under -tracedir)")
	traceDir := fs.String("tracedir", filepath.Join("benchmark", "out"), "directory the traced run writes trace-<workload>.json to")
	out := fs.String("out", "", "with every workload: write the results to this JSON file, for compare")
	runs := fs.Int("runs", 1, "with every workload: end-to-end runs per workload (compare needs 4 or more to judge spread)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Load never exceeds the machine: at most two threads, fewer on one core.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	if *name == "" {
		return runAll(*seed, *seconds, *trace, *runs, *traceDir, *out, procs, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	cfg := runConfig{workload: w, seed: *seed, seconds: *seconds, size: full, setupReps: 7}
	var res result
	var messages []string
	var err error
	defs := endToEnd
	if *trace != 0 {
		defs = perLayer
		res, messages, err = runTraced(cfg, filepath.Join(*traceDir, "trace-"+w.name+".json"))
	} else {
		res, messages, err = runEndToEnd(cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	for _, m := range messages {
		fmt.Fprintf(stderr, "benchmark: %s: wrong answer: %s\n", w.name, m)
	}
	printMetrics(stdout, w.name, defs, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// printMetrics lists every metric of a result by name with its unit, the
// sample count behind it, and its bound.
func printMetrics(w io.Writer, workload string, defs []metricDef, res result) {
	fmt.Fprintf(w, "%s: %d ops attempted, %d failed, correct=%t\n", workload, res.Attempted, res.Failed, res.Correct)
	for _, d := range defs {
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %g", d.Bound)
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-6s n=%d  %s is better%s\n", d.Name, res.Metrics[d.Name].Value, d.Unit, res.Attempted, d.Better, bound)
	}
}

// runRecord is one child run as the results file keeps it.
type runRecord struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// resultsFile is what -out writes and compare reads.
type resultsFile struct {
	Seed       int64       `json:"seed"`
	Seconds    float64     `json:"seconds"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Runs       []runRecord `json:"runs"`
}

// runAll runs every workload in a child process of its own, so that peak
// memory and garbage-collector state do not leak from one workload into the
// next.
func runAll(seed int64, seconds float64, trace, runs int, traceDir, out string, procs int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	file := resultsFile{Seed: seed, Seconds: seconds, GoMaxProcs: procs}
	ok := true
	child := func(w workload, traced int) {
		cmd := exec.Command(self,
			"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(traced), "-tracedir", traceDir)
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
		cmd.Stderr = stderr
		output, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			ok = false
			return
		}
		lines := bytes.Split(bytes.TrimSpace(output), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: last line is not a result: %v\n", w.name, err)
			ok = false
			return
		}
		stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
		fmt.Fprintln(stdout)
		ok = ok && res.Correct
		file.Runs = append(file.Runs, runRecord{Workload: w.name, Trace: traced, Result: res})
	}
	for _, w := range workloads() {
		for r := 0; r < runs; r++ {
			child(w, 0)
		}
		if trace != 0 {
			child(w, 1)
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// refsMain regenerates testdata/sparse_refs.json: every instance of the
// full-size sparse pools solved at its own width and cross-checked at the
// other. A cross-check that cannot finish inside the budget is reported and
// the own-width optimum kept.
func refsMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: benchmark refs <output.json>")
		return 2
	}
	refs := map[string]float64{}
	for _, pl := range []pool{sparseDefaultPool, sparseWidePool} {
		for _, sub := range pl.subs {
			pr := sparseProblem(sub, pl.n, pl.workers)
			rec, err := pr.solve()
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", refKey(pl.n, sub), err)
				return 1
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			opts := pr.opts
			opts.Workers, opts.Ctx = otherWidth(pl.workers), ctx
			other, err := core.Solve(pr.specs, pr.res, opts)
			cancel()
			switch {
			case err != nil:
				fmt.Fprintf(stdout, "%s: objective %v, NOT cross-checked (%v)\n", refKey(pl.n, sub), rec.Objective, err)
			case checkObjective(other.Objective, rec.Objective) != "":
				fmt.Fprintf(stderr, "benchmark: %s: widths disagree: %v vs %v\n", refKey(pl.n, sub), rec.Objective, other.Objective)
				return 1
			default:
				fmt.Fprintf(stdout, "%s: objective %v, cross-checked\n", refKey(pl.n, sub), rec.Objective)
			}
			refs[refKey(pl.n, sub)] = rec.Objective
		}
	}
	data, err := json.MarshalIndent(refs, "", " ") // map keys come out sorted
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if err := os.WriteFile(args[0], append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}
