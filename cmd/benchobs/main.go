// Command benchobs reads what the other commands record: it reconstructs
// per-step timelines from JSONL run ledgers, validates solver flight streams,
// and indexes a directory of ledgers into the cross-run registry.
//
// Usage:
//
//	benchobs summarize -ledger run.jsonl
//	benchobs flightcheck -ledger run.jsonl
//	benchobs runs [-dir dir] [-filter s] [-json]
//
// summarize replays a run ledger into a per-step activity table (including
// solver gap timelines when the ledger carries solveprog events). flightcheck validates every solver flight stream in a ledger —
// monotone invariants via obs.CheckSolveProg, plus each stream must close its
// gap — and exits 1 on any violation or when no stream exists, making it a CI
// gate for -flight output. runs scans a directory of *.jsonl ledgers into the
// cross-run registry and prints one row per run (or JSON with -json).
//
// (Time and memory are measured by `go run ./benchmark`; the deterministic
// solver counters are held by the internal/perfbench baseline test.)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"insitu/internal/obs"
)

const usageText = `usage: benchobs <command> [flags]

commands:
  summarize  reconstruct per-step timelines from a JSONL run ledger
  flightcheck  validate the solver flight streams in a ledger; exit 1 on violation
  runs       scan a directory of run ledgers into the cross-run registry

run 'benchobs <command> -h' for the flags of each command.
`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches to a subcommand and returns the process exit code: 0 ok,
// 1 failure, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usageText)
		return 2
	}
	switch args[0] {
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
