// Command runmon is the live-run watchdog: it watches a scheduled in-situ
// run through its JSONL event ledger, scores every step, analysis, and
// output duration against the predictions the schedule was solved from, and
// reports drift (EWMA of relative error plus a CUSUM change detector) and
// budget-at-risk projections while the run is still going.
//
// Usage:
//
//	runmon tail   -ledger run.jsonl [-poll 500ms] [-once]
//	runmon report -ledger run.jsonl [-html report.html] [-json]
//	runmon serve  -ledger run.jsonl [-addr host:port] [-poll 500ms]
//	runmon check  run.jsonl...
//
// tail follows a growing ledger and redraws the terminal drift dashboard as
// events arrive, exiting when the run ends (or on interrupt). report replays
// a completed ledger once and prints the post-hoc drift report — the
// residual table, one row per solve, the replans and every solver flight's
// gap timeline — with -html it also writes a self-contained HTML report,
// with -json the raw snapshot. serve follows the ledger and exposes the live
// dashboard over HTTP: / (the HTML report), /runs, /drift.json, and /metrics
// with the runmon detector gauges; it shuts down cleanly on SIGINT/SIGTERM.
// check is the CI gate for solver flight recordings: for each ledger it
// prints the /runs row and one ok/BAD line per flight stream, and exits 1
// unless every ledger holds at least one stream and every stream keeps the
// obs.CheckSolveProg invariants and ends optimal with its gap closed.
//
// Ledgers written by monitored runs (mdsim -monitor, flashsim -monitor,
// campaign.Config.Monitor) embed their predictions as plan events, so runmon
// needs only the file; ledgers without plans are scored against a baseline
// self-calibrated from each stream's first observations.
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
	"strings"
	"syscall"
	"time"

	"insitu/internal/obs"
	"insitu/internal/runmon"
)

const usageText = `usage: runmon <command> [flags]

commands:
  tail    follow a growing run ledger and redraw the drift dashboard
  report  replay a completed ledger and print the drift report
  serve   follow a ledger and expose the dashboard over HTTP
  check   validate the solver flight streams of ledgers; exit 1 on violation

run 'runmon <command> -h' for the flags of each command.
`

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches to a subcommand and returns the process exit code: 0 ok,
// 1 failure, 2 usage error. ctx cancellation (the signal handler in main)
// shuts tail and serve down cleanly.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usageText)
		return 2
	}
	switch args[0] {
	case "tail":
		return cmdTail(ctx, args[1:], stdout, stderr)
	case "report":
		return cmdReport(args[1:], stdout, stderr)
	case "serve":
		return cmdServe(ctx, args[1:], stdout, stderr)
	case "check":
		return cmdCheck(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stdout, usageText)
		return 0
	}
	fmt.Fprintf(stderr, "runmon: unknown command %q\n%s", args[0], usageText)
	return 2
}

// ledgerFlag resolves the -ledger flag, falling back to the first positional
// argument.
func ledgerFlag(fs *flag.FlagSet, ledger string, stderr io.Writer) (string, bool) {
	path := ledger
	if path == "" {
		path = fs.Arg(0)
	}
	if path == "" {
		fmt.Fprintln(stderr, "runmon: needs -ledger run.jsonl")
		fs.Usage()
		return "", false
	}
	return path, true
}

func cmdTail(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("runmon tail", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ledger := fs.String("ledger", "", "JSONL run ledger to follow (required)")
	poll := fs.Duration("poll", 500*time.Millisecond, "ledger poll interval")
	once := fs.Bool("once", false, "process the ledger's current contents once and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	path, ok := ledgerFlag(fs, *ledger, stderr)
	if !ok {
		return 2
	}

	mon := runmon.NewMonitor(nil, runmon.Config{})
	f := runmon.NewFollower(path)
	for {
		events, err := f.Poll()
		if err != nil {
			fmt.Fprintf(stderr, "runmon: %v\n", err)
			return 1
		}
		for _, e := range events {
			mon.Observe(e)
		}
		if len(events) > 0 {
			s := mon.Snapshot()
			fmt.Fprintln(stdout)
			if err := s.WriteText(stdout); err != nil {
				fmt.Fprintf(stderr, "runmon: %v\n", err)
				return 1
			}
			if s.Ended {
				fmt.Fprintf(stdout, "run ended: %s\n", s.Summary())
				return 0
			}
		}
		if *once {
			return 0
		}
		select {
		case <-ctx.Done():
			return 0
		case <-time.After(*poll):
		}
	}
}

func cmdReport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("runmon report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ledger := fs.String("ledger", "", "JSONL run ledger to replay (required)")
	htmlPath := fs.String("html", "", "also write a self-contained HTML drift report to this file")
	asJSON := fs.Bool("json", false, "emit the snapshot as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	path, ok := ledgerFlag(fs, *ledger, stderr)
	if !ok {
		return 2
	}
	events, err := obs.ReadLedgerFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "runmon: %v\n", err)
		return 1
	}
	if len(events) == 0 {
		fmt.Fprintf(stderr, "runmon: ledger %s: no events\n", path)
		return 1
	}
	s := runmon.Analyze(events, nil, runmon.Config{})
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s); err != nil {
			fmt.Fprintf(stderr, "runmon: %v\n", err)
			return 1
		}
	} else {
		if err := s.WriteText(stdout); err != nil {
			fmt.Fprintf(stderr, "runmon: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "summary: %s\n", s.Summary())
	}
	if *htmlPath != "" {
		f, err := os.Create(*htmlPath)
		if err != nil {
			fmt.Fprintf(stderr, "runmon: %v\n", err)
			return 1
		}
		if err := s.WriteHTML(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "runmon: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "runmon: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *htmlPath)
	}
	return 0
}

func cmdServe(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("runmon serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ledger := fs.String("ledger", "", "JSONL run ledger to follow (required)")
	addr := fs.String("addr", "127.0.0.1:8090", "listen address for the dashboard")
	poll := fs.Duration("poll", 500*time.Millisecond, "ledger poll interval")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	path, ok := ledgerFlag(fs, *ledger, stderr)
	if !ok {
		return 2
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "runmon: %v\n", err)
		return 1
	}
	return serveLedger(ctx, ln, path, *poll, stdout, stderr)
}

// serveLedger follows the ledger into a live monitor and serves the runmon
// HTTP surface on ln until ctx is canceled. Both sit on obs.ServeLoop — the
// shared daemon shape — so one signal stops the server and the follower
// together, and both are drained before returning.
func serveLedger(ctx context.Context, ln net.Listener, path string, poll time.Duration, stdout, stderr io.Writer) int {
	reg := obs.NewRegistry()
	mon := runmon.NewMonitor(nil, runmon.Config{Metrics: reg})
	fmt.Fprintf(stdout, "runmon: serving http://%s/ (also /runs, /drift.json, /metrics) from %s\n", ln.Addr(), path)
	err := obs.ServeLoop(ctx, ln, runmon.NewServeMux(mon, reg), func(bgCtx context.Context) error {
		if err := runmon.Follow(bgCtx, path, poll, mon.Observe); err != nil {
			return fmt.Errorf("ledger follow: %w", err)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(stderr, "runmon: %v\n", err)
		return 1
	}
	return 0
}

// cmdCheck validates every solver flight stream in each named ledger. It
// reads all the streams (obs.GroupSolveProgEvents), not the live monitor's
// most recent few, so a replanning run's every re-solve is checked.
func cmdCheck(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: runmon check run.jsonl...")
		return 2
	}
	var bad []string
	for _, path := range args {
		if !checkLedger(path, stdout, stderr) {
			bad = append(bad, path)
		}
	}
	if len(bad) > 0 {
		fmt.Fprintf(stderr, "runmon: check failed for %d of %d ledger(s): %s\n",
			len(bad), len(args), strings.Join(bad, ", "))
		return 1
	}
	return 0
}

// checkLedger prints one ledger's run row and stream verdicts and reports
// whether every stream passed.
func checkLedger(path string, stdout, stderr io.Writer) bool {
	events, err := obs.ReadLedgerFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "runmon: %v\n", err)
		return false
	}
	info := runmon.Analyze(events, nil, runmon.Config{}).RunInfo()
	app := info.App
	if app == "" {
		app = "-"
	}
	fmt.Fprintf(stdout, "%s: app=%s runs=%d step=%d ended=%t streams=%d alerts=%d budget_at_risk=%t\n",
		path, app, info.Runs, info.Step, info.Ended, info.Streams, info.Alerts, info.AtRisk)
	flights := obs.GroupSolveProgEvents(events)
	if len(flights) == 0 {
		fmt.Fprintf(stderr, "runmon: ledger %s: no solveprog events\n", path)
		return false
	}
	ok := true
	for i, f := range flights {
		name := f.Name
		if name == "" {
			name = fmt.Sprintf("solve[%d]", i)
		}
		verdict, pass := flightVerdict(f.Records)
		ok = ok && pass
		fmt.Fprintf(stdout, "  %-32s %4d event(s) %s\n", name, len(f.Records), verdict)
	}
	return ok
}

// flightVerdict checks one stream: the monotone invariants, then an end
// event that is optimal with the gap closed to within obs.CheckTol.
func flightVerdict(recs []obs.SolveProgress) (string, bool) {
	if err := obs.CheckSolveProg(recs); err != nil {
		return "BAD: " + err.Error(), false
	}
	gap, status, defined := obs.FinalGap(recs)
	switch {
	case !defined:
		return "BAD: no end event with a defined gap", false
	case status != "optimal" || gap > obs.CheckTol:
		return fmt.Sprintf("BAD: status %s, final gap %.4g", status, gap), false
	}
	return fmt.Sprintf("ok (optimal, gap %.4g)", gap), true
}
