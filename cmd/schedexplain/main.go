// Command schedexplain explains a recommended in-situ schedule: it solves the
// same JSON problem description insitu-sched reads, then reports why each
// analysis runs at its frequency (binding resource and slack), what enabling
// each disabled analysis would cost (counterfactual re-solve, with a minimal
// conflicting-constraint set when forcing is impossible), the resource rows
// with their root-relaxation shadow prices, and the branch-and-bound search
// statistics.
//
// Usage:
//
//	schedexplain [-html report.html] [-tree tree.json] [-dot tree.dot]
//	             [-ledger run.jsonl] [-width n] [-max-nodes n]
//	             problem.json
//
// The terminal report always goes to stdout. -html additionally writes a
// self-contained HTML report, -tree/-dot export the recorded search tree
// (JSON / Graphviz), and -ledger aligns a JSONL run ledger (as written by
// obs.EventLog) against the plan, flagging count drift between planned and
// executed analysis steps.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"insitu/internal/core"
	"insitu/internal/explain"
	"insitu/internal/obs"
	"insitu/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI and returns the process exit code: 0 ok, 1 failure,
// 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("schedexplain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	htmlOut := fs.String("html", "", "also write a self-contained HTML report to this file")
	treeOut := fs.String("tree", "", "write the branch-and-bound tree as JSON to this file")
	dotOut := fs.String("dot", "", "write the branch-and-bound tree as Graphviz DOT to this file")
	ledgerPath := fs.String("ledger", "", "align this JSONL run ledger against the plan")
	width := fs.Int("width", 100, "timeline width in characters")
	maxNodes := fs.Int("max-nodes", 0, "cap branch-and-bound nodes (0 = solver default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: schedexplain [-html report.html] [-tree tree.json] [-dot tree.dot] [-ledger run.jsonl] [-width n] [-max-nodes n] problem.json")
		return 2
	}

	specs, res, err := scenario.LoadSpecs(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "schedexplain: %v\n", err)
		return 1
	}
	r, err := explain.Build(specs, res, explain.Options{
		Solve:      core.SolveOptions{MaxNodes: *maxNodes},
		GanttWidth: *width,
	})
	if err != nil {
		fmt.Fprintf(stderr, "schedexplain: %v\n", err)
		return 1
	}

	if *ledgerPath != "" {
		events, err := obs.ReadLedgerFile(*ledgerPath)
		if err != nil {
			fmt.Fprintf(stderr, "schedexplain: %v\n", err)
			return 1
		}
		if len(events) == 0 {
			fmt.Fprintf(stderr, "schedexplain: ledger %s: no events\n", *ledgerPath)
			return 1
		}
		r.AlignLedger(events)
	}

	if err := r.WriteText(stdout); err != nil {
		fmt.Fprintf(stderr, "schedexplain: %v\n", err)
		return 1
	}

	artifacts := []struct {
		path  string
		write func(io.Writer) error
		kind  string
	}{
		{*htmlOut, r.WriteHTML, "HTML report"},
		{*treeOut, r.Recorder.WriteJSON, "search tree (JSON)"},
		{*dotOut, r.Recorder.WriteDOT, "search tree (DOT)"},
	}
	for _, a := range artifacts {
		if a.path == "" {
			continue
		}
		if err := writeArtifact(a.path, a.write); err != nil {
			fmt.Fprintf(stderr, "schedexplain: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote %s to %s\n", a.kind, a.path)
	}
	return 0
}

// writeArtifact writes one export through the given renderer, reporting the
// first of the render and close errors.
func writeArtifact(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
