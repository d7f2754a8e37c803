// Package explain renders schedule-explainability reports: why the solver
// enabled each analysis at its frequency, what it would cost to force a
// disabled one on, how the branch-and-bound search ran, and — when a run
// ledger is supplied — how the executed step timings compare to the plan.
// The attribution itself comes from core.Explain; this package owns the
// terminal and HTML presentation plus the ledger alignment.
package explain

import (
	"fmt"
	"io"
	"math"
	"strings"

	"insitu/internal/core"
	"insitu/internal/milp"
	"insitu/internal/obs"
)

// Options tune report construction.
type Options struct {
	// Solve is passed to core.Explain; its Progress hook is replaced by the
	// report's tree recorder.
	Solve core.SolveOptions
	// GanttWidth is the character width of the timeline rendering
	// (default 100).
	GanttWidth int
}

// Report is one built explainability report, ready to render.
type Report struct {
	Res core.Resources
	Ex  *core.Explanation

	// Recorder holds the branch-and-bound tree of the base solve; Tree() and
	// WriteDOT/WriteJSON on it export the search.
	Recorder *milp.TreeRecorder

	// Ledger is non-nil after AlignLedger: planned vs executed timings.
	Ledger *Alignment

	ganttWidth int
}

// Build solves and attributes the scenario, recording the search tree of the
// base solve.
func Build(specs []core.AnalysisSpec, res core.Resources, opts Options) (*Report, error) {
	rec := milp.NewTreeRecorder()
	if names, err := core.CompactNames(specs, res, opts.Solve); err == nil {
		rec.SetNames(names)
	}
	solveOpts := opts.Solve
	solveOpts.Progress = rec.Observe
	ex, err := core.Explain(specs, res, solveOpts)
	if err != nil {
		return nil, err
	}
	width := opts.GanttWidth
	if width <= 0 {
		width = 100
	}
	return &Report{
		Res:        res,
		Ex:         ex,
		Recorder:   rec,
		ganttWidth: width,
	}, nil
}

// WriteText renders the terminal report: schedule summary, timeline,
// per-analysis attribution, resource rows with shadow prices, counterfactual
// conflicts, and search statistics.
func (r *Report) WriteText(w io.Writer) error {
	var b strings.Builder
	rec := r.Ex.Rec

	b.WriteString("== schedule ==\n")
	b.WriteString(rec.String())
	if r.Res.TimeThreshold > 0 {
		fmt.Fprintf(&b, "threshold utilization: %.1f%%\n", rec.Utilization(r.Res)*100)
	}

	b.WriteString("\n== timeline ('.' sim, 'A' analysis, 'O' analysis+output) ==\n")
	b.WriteString(rec.GanttString(r.Res, r.ganttWidth))

	b.WriteString("\n== attribution ==\n")
	for _, at := range r.Ex.Attributions {
		if at.Enabled {
			fmt.Fprintf(&b, "  %-24s enabled  count=%d/%d binding=%s%s\n",
				at.Name, at.Count, at.MaxCount, at.Binding, bindingDetail(at))
			continue
		}
		fmt.Fprintf(&b, "  %-24s disabled %s\n", at.Name, counterfactual(at))
		if len(at.Conflict) > 0 {
			fmt.Fprintf(&b, "  %-24s          conflict: {%s}\n", "", strings.Join(at.Conflict, ", "))
		}
	}

	if len(r.Ex.Rows) > 0 {
		b.WriteString("\n== resource rows (duals from the root relaxation) ==\n")
		fmt.Fprintf(&b, "  %-18s %14s %14s %12s %10s\n", "row", "activity", "rhs", "slack", "dual")
		for _, row := range r.Ex.Rows {
			mark := ""
			if row.Binding {
				mark = "  <- binding"
			}
			fmt.Fprintf(&b, "  %-18s %14.4g %14.4g %12.4g %10.4g%s\n",
				row.Name, row.Activity, row.RHS, row.Slack, row.Dual, mark)
		}
	}

	fmt.Fprintf(&b, "\n== search ==\n  %s\n", r.searchLine())

	if r.Ledger != nil {
		b.WriteString("\n== planned vs executed (run ledger) ==\n")
		writeAlignment(&b, r.Ledger)
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// searchLine summarizes the base solve's search on one line: milp's prune
// taxonomy, and the deepest node the recorder saw.
func (r *Report) searchLine() string {
	st := r.Ex.Rec.Stats
	depth := 0
	for _, n := range r.Recorder.Nodes() {
		depth = max(depth, n.Depth)
	}
	return fmt.Sprintf("explored=%d branched=%d pruned=%d infeasible=%d integral=%d max_depth=%d",
		st.Nodes, st.BranchedNodes, st.PrunedBound, st.PrunedInfeasible, st.IntegralNodes, depth)
}

// bindingDetail formats the slack behind a binding label.
func bindingDetail(at core.Attribution) string {
	switch at.Binding {
	case core.BindingMinInterval:
		return " (runs every interval; no budget buys more)"
	case core.BindingTime:
		return fmt.Sprintf(" (%.3fs slack < %.3fs next step)", at.BindingSlack, at.NextStepCost)
	case core.BindingMemory:
		return fmt.Sprintf(" (%.0f B headroom short of the next step)", at.BindingSlack)
	case core.BindingTimeMemory:
		return " (every candidate step breaks both thresholds)"
	default:
		return ""
	}
}

// counterfactual formats the forced-probe outcome for a disabled analysis.
func counterfactual(at core.Attribution) string {
	if at.ForcedFeasible {
		return fmt.Sprintf("forcing on costs %+.3f objective (count %d if forced)",
			at.ForcedDelta, at.ForcedCount)
	}
	if at.ForcedViolation != "" {
		return "forcing on is infeasible: " + at.ForcedViolation
	}
	return "forcing on is infeasible"
}

// writeAlignment renders the planned-vs-executed table.
func writeAlignment(b *strings.Builder, a *Alignment) {
	if a.App != "" {
		fmt.Fprintf(b, "  run: %s (%d ledger step(s))\n", a.App, a.Steps)
	}
	fmt.Fprintf(b, "  %-24s %14s %14s %14s %14s\n",
		"analysis", "planned steps", "executed", "planned sec", "executed sec")
	for _, k := range a.Kernels {
		fmt.Fprintf(b, "  %-24s %14d %14d %14.3f %14.3f%s\n",
			k.Name, k.PlannedCount, k.ExecutedCount, k.PlannedSec, k.ExecutedSec, k.note())
	}
	if len(a.Replans) > 0 {
		fmt.Fprintf(b, "  replan timeline (%d decision(s)):\n", len(a.Replans))
		for _, r := range a.Replans {
			if r.Adopted {
				fmt.Fprintf(b, "    step %-5d [%s] %s/%s: value %.2f -> %.2f, cost %.3fs -> %.3fs of %.3fs budget\n",
					r.Step, r.Reason, r.Trigger, r.Stream, r.OldValue, r.NewValue,
					r.OldCostSec, r.NewCostSec, r.BudgetSec)
			} else {
				fmt.Fprintf(b, "    step %-5d [%s] %s/%s: kept incumbent (value %.2f, budget %.3fs)\n",
					r.Step, r.Reason, r.Trigger, r.Stream, r.OldValue, r.BudgetSec)
			}
		}
	}
	// Solver gap-closure timelines, when the ledger carried flight streams.
	for _, f := range a.Flights {
		var tl strings.Builder
		if err := obs.WriteGapTimeline(&tl, f.Name, f.Records); err != nil {
			continue
		}
		for _, line := range strings.Split(strings.TrimRight(tl.String(), "\n"), "\n") {
			b.WriteString("  " + line + "\n")
		}
	}
}

// note flags count drift between plan and execution.
func (k KernelAlignment) note() string {
	switch {
	case k.ExecutedCount == 0 && k.PlannedCount > 0:
		return "  <- never ran"
	case k.ExecutedCount != k.PlannedCount:
		return fmt.Sprintf("  <- drift %+d steps", k.ExecutedCount-k.PlannedCount)
	}
	return ""
}

// humanBytes renders byte counts for the HTML report.
func humanBytes(n float64) string {
	if math.IsInf(n, 1) {
		return "∞"
	}
	units := []string{"B", "KiB", "MiB", "GiB", "TiB"}
	i := 0
	for n >= 1024 && i < len(units)-1 {
		n /= 1024
		i++
	}
	if i == 0 {
		return fmt.Sprintf("%.0f %s", n, units[i])
	}
	return fmt.Sprintf("%.2f %s", n, units[i])
}
