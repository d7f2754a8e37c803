// Command insitu-sched solves the in-situ analysis scheduling problem for a
// JSON problem description and prints the recommended schedule.
//
// Usage:
//
//	insitu-sched [-full] [-coupling] [-json] problem.json
//
// The input file holds the Table-1 parameters of each analysis plus the
// resource envelope:
//
//	{
//	  "resources": {
//	    "steps": 1000,
//	    "time_threshold_sec": 64.7,
//	    "mem_threshold_bytes": 12884901888,
//	    "bandwidth_bytes_per_sec": 4536000000
//	  },
//	  "analyses": [
//	    {"name": "A1", "ct_sec": 0.065, "ot_sec": 0.005,
//	     "fm_bytes": 67108864, "min_interval": 100, "weight": 1}
//	  ]
//	}
//
// -full selects the time-indexed formulation (small step counts only),
// -coupling prints Figure-1 style coupling strings, and -json emits the
// recommendation as JSON instead of text.
//
// -trace records the branch-and-bound search as Chrome trace JSON: one span
// for the solve with one instant event per explored node (carrying the node
// bound and incumbent) plus bound/incumbent counter tracks. -metrics writes
// solver counters (nodes, relaxations, simplex pivots, incumbents) in
// Prometheus text format, or JSON when the path ends in .json.
//
// -flight records the solver's flight-recorder stream — per-node tree
// position, incumbent, bound, gap, and prune-taxonomy samples as
// schema-versioned solveprog events — to a JSONL ledger file; runmon check
// validates it and runmon report renders the gap-closure timeline.
//
// -monitor scores an executed run ledger (JSONL) against the solved schedule
// and prints the drift report. Adding -replan replays the same ledger through
// a rolling-horizon replanner and prints the reschedules it would have
// adopted at each drift or budget alert — an offline what-if for runs that
// executed the up-front schedule statically.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"insitu/internal/core"
	"insitu/internal/explain"
	"insitu/internal/obs"
	"insitu/internal/replan"
	"insitu/internal/runmon"
	"insitu/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI and returns the process exit code: 0 ok, 1 failure,
// 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("insitu-sched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	full := fs.Bool("full", false, "use the time-indexed formulation (equations 2-9 verbatim; small step counts only)")
	coupling := fs.Bool("coupling", false, "print Figure-1 style coupling strings")
	asJSON := fs.Bool("json", false, "emit the recommendation as JSON")
	exportLP := fs.String("export-lp", "", "write the model in CPLEX LP format to this file (for cross-checking with external solvers)")
	sensitivity := fs.Bool("sensitivity", false, "report the threshold at which each analysis gains one more step")
	explainFlag := fs.Bool("explain", false, "print the schedule-explainability report (attribution, duals, search stats; uses the compact model)")
	sinks := obs.SinkFlags(fs, false)
	flightPath := fs.String("flight", "", "record the solver's progress stream (solveprog events) to this JSONL ledger file")
	monitorPath := fs.String("monitor", "", "score an executed run ledger (JSONL) against the solved schedule and print the drift report")
	replanFlag := fs.Bool("replan", false, "with -monitor: replay the ledger through a rolling-horizon replanner and print the reschedules it would have made (advisory; nothing is re-executed)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: insitu-sched [-full] [-coupling] [-json] [-explain] [-export-lp model.lp] [-sensitivity] [-trace trace.json] [-metrics metrics.txt] [-flight flight.jsonl] [-monitor run.jsonl] [-replan] problem.json")
		return 2
	}
	if *replanFlag && *monitorPath == "" {
		fmt.Fprintln(stderr, "insitu-sched: -replan needs -monitor run.jsonl (the executed ledger to replay)")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "insitu-sched:", err)
		return 1
	}

	specs, res, err := loadProblem(fs.Arg(0))
	if err != nil {
		return fail(err)
	}

	if *exportLP != "" {
		f, err := os.Create(*exportLP)
		if err != nil {
			return fail(err)
		}
		exporter := core.ExportLP
		if *full {
			exporter = func(w io.Writer, s []core.AnalysisSpec, r core.Resources, _ core.SolveOptions) error {
				return core.ExportFullLP(w, s, r)
			}
		}
		if err := exporter(f, specs, res, core.SolveOptions{}); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "wrote %s\n", *exportLP)
	}

	solve := core.Solve
	if *full {
		solve = core.SolveFull
	}
	if err := sinks.Open(); err != nil {
		return fail(err)
	}
	tracer := sinks.Trace
	var opts core.SolveOptions
	var flight *obs.FlightRecorder
	if *flightPath != "" {
		flight = obs.NewFlightRecorder(0)
		flight.SetName("solve")
		opts.Flight = flight
	}
	solveSpan := tracer.Begin("solve", "solver")
	var incumbents int
	if tracer != nil || sinks.Metrics != nil {
		opts.Progress = func(p obs.SolveProgress) {
			switch {
			case p.Kind == obs.SolveProgIncumbent:
				incumbents++
			case p.Kind == obs.SolveProgNode && tracer != nil:
				args := map[string]float64{"node": float64(p.Nodes), "depth": float64(p.Depth), "bound": p.NodeBound}
				if p.HasInc {
					args["incumbent"] = p.Incumbent
					tracer.Counter("incumbent", p.Incumbent)
				}
				tracer.Instant("node/"+p.Action, "solver", args)
				tracer.Counter("bound", p.NodeBound)
			}
		}
	}
	rec, err := solve(specs, res, opts)
	if err != nil {
		return fail(err)
	}
	solveSpan.End()
	if flight != nil {
		l, err := obs.OpenEventLog(*flightPath, 0)
		if err != nil {
			return fail(err)
		}
		flight.AppendLedger(l, "")
		if err := l.Close(); err != nil {
			return fail(err)
		}
		recs := flight.Snapshot()
		line := fmt.Sprintf("wrote flight stream (%d events) to %s", len(recs), *flightPath)
		if gap, status, ok := obs.FinalGap(recs); ok {
			line += fmt.Sprintf(" — %s, final gap %.4g", status, gap)
		}
		fmt.Fprintln(stderr, line)
	}
	if reg := sinks.Metrics; reg != nil {
		st := rec.Stats
		reg.Counter("solver_nodes_total", nil).Add(float64(st.Nodes))
		reg.Counter("solver_relaxations_total", nil).Add(float64(st.Relaxations))
		reg.Counter("solver_pivots_total", nil).Add(float64(st.Pivots))
		reg.Counter("solver_incumbents_total", nil).Add(float64(incumbents))
		reg.Gauge("solver_best_bound", nil).Set(st.BestBound)
		reg.Gauge("solver_objective", nil).Set(rec.Objective)
		reg.Counter("solver_solve_seconds_total", nil).Add(st.SolveTime.Seconds())
	}
	if err := sinks.Close(stderr); err != nil {
		return fail(err)
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			return fail(err)
		}
		return 0
	}
	fmt.Fprint(stdout, rec.String())
	fmt.Fprintf(stdout, "threshold utilization: %.1f%%\n", rec.Utilization(res)*100)
	if *sensitivity {
		out, err := core.AnalyzeThresholdSensitivity(specs, res)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "\nthreshold sensitivity (smallest budget buying one more step):")
		for _, s := range out {
			if math.IsInf(s.NextThreshold, 1) {
				fmt.Fprintf(stdout, "  %-24s count=%-4d saturated (interval bound)\n", s.Name, s.CurrentCount)
				continue
			}
			fmt.Fprintf(stdout, "  %-24s count=%-4d next at %.3fs (+%.3fs)\n",
				s.Name, s.CurrentCount, s.NextThreshold, s.NextThreshold-res.TimeThreshold)
		}
	}
	if *coupling {
		fmt.Fprintf(stdout, "\nschedule timeline ('.' sim, 'A' analysis, 'O' analysis+output):\n%s",
			rec.GanttString(res, 100))
		for _, s := range rec.Schedules {
			if !s.Enabled {
				continue
			}
			fmt.Fprintf(stdout, "\n%s:\n%s\n", s.Name, core.CouplingString(res, s, 0))
		}
	}
	if *explainFlag {
		fmt.Fprintln(stdout)
		if err := writeExplainReport(stdout, specs, res); err != nil {
			return fail(err)
		}
	}
	if *monitorPath != "" {
		fmt.Fprintln(stdout)
		if err := writeMonitorReport(stdout, *monitorPath, specs, res, rec); err != nil {
			return fail(err)
		}
		if *replanFlag {
			fmt.Fprintln(stdout)
			if err := writeReplanAdvisory(stdout, *monitorPath, specs, res, rec); err != nil {
				return fail(err)
			}
		}
	}
	return 0
}

// writeReplanAdvisory replays the executed ledger through a live monitor plus
// a rolling-horizon replanner and prints the reschedule decisions the
// replanner would have made at each drift or budget alert — an offline
// what-if for runs that executed statically. Replan events already present in
// the ledger are dropped from the replay, so the advisory timeline belongs to
// the advisory replanner alone.
func writeReplanAdvisory(w io.Writer, path string, specs []core.AnalysisSpec, res core.Resources, rec *core.Recommendation) error {
	events, err := obs.ReadLedgerFile(path)
	if err != nil {
		return err
	}
	profile := runmon.FromPlan(specs, rec, res, 0)
	if ledgerProfile := runmon.FromEvents(events); ledgerProfile != nil {
		profile = ledgerProfile
	}
	mon := runmon.NewMonitor(profile, runmon.Config{})
	rp := replan.New(mon, specs, res, rec, profile.SimSec, replan.Config{})
	for _, e := range events {
		if e.Type == obs.LedgerReplan {
			continue
		}
		mon.Observe(e)
		if e.Type == obs.LedgerStep {
			rp.Decide(e.Step)
		}
	}
	recs := rp.Records()
	fmt.Fprintf(w, "replan advisory (%s): %d decision(s)\n", path, len(recs))
	if len(recs) == 0 {
		fmt.Fprintln(w, "  no drift or budget alerts fired; the up-front schedule held")
		return nil
	}
	for _, r := range recs {
		if r.Adopted {
			fmt.Fprintf(w, "  step %-5d [%s] %s/%s: value %.2f -> %.2f, cost %.3fs -> %.3fs of %.3fs budget\n",
				r.Step, r.Reason, r.Trigger, r.Stream, r.OldValue, r.NewValue,
				r.OldCostSec, r.NewCostSec, r.BudgetSec)
		} else {
			fmt.Fprintf(w, "  step %-5d [%s] %s/%s: kept incumbent (value %.2f, budget %.3fs)\n",
				r.Step, r.Reason, r.Trigger, r.Stream, r.OldValue, r.BudgetSec)
		}
	}
	return nil
}

// writeMonitorReport replays an executed run's ledger against the schedule
// just solved and prints the post-hoc drift report: did the run's observed
// step, analysis, and output durations stay near the costs the schedule was
// solved from? Plan events embedded in the ledger refine the profile (the
// probed simulation rate, for instance, which the problem JSON lacks).
func writeMonitorReport(w io.Writer, path string, specs []core.AnalysisSpec, res core.Resources, rec *core.Recommendation) error {
	events, err := obs.ReadLedgerFile(path)
	if err != nil {
		return err
	}
	profile := runmon.FromPlan(specs, rec, res, 0)
	if ledgerProfile := runmon.FromEvents(events); ledgerProfile != nil {
		profile = ledgerProfile
	}
	s := runmon.Analyze(events, profile, runmon.Config{})
	fmt.Fprintf(w, "run monitor (%s):\n", path)
	return s.WriteText(w)
}

// loadProblem parses the JSON problem description into solver inputs; the
// format lives in internal/scenario, shared with schedexplain.
func loadProblem(path string) ([]core.AnalysisSpec, core.Resources, error) {
	return scenario.LoadSpecs(path)
}

// writeExplainReport renders the -explain attribution report.
func writeExplainReport(w io.Writer, specs []core.AnalysisSpec, res core.Resources) error {
	r, err := explain.Build(specs, res, explain.Options{})
	if err != nil {
		return err
	}
	return r.WriteText(w)
}
