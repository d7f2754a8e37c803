package core

import (
	"math"
	"strings"
	"testing"

	"insitu/internal/milp"
	"insitu/internal/obs"
)

// explainSpecs is a two-analysis instance where the optimum enables the cheap
// analysis at its interval ceiling and leaves the expensive one disabled:
// cheap costs 0.1 s/step (10 steps max at interval 10), expensive needs 30 s
// for even one step against a 5 s budget.
func explainSpecs() ([]AnalysisSpec, Resources) {
	specs := []AnalysisSpec{
		{Name: "cheap", CT: 0.1, OT: 0.01, FM: 1 << 10, MinInterval: 10},
		{Name: "expensive", CT: 30, OT: 0.5, FM: 1 << 20, MinInterval: 10},
	}
	res := Resources{Steps: 100, TimeThreshold: 5}
	return specs, res
}

func TestExplainIntervalBoundAndInfeasibleCounterfactual(t *testing.T) {
	specs, res := explainSpecs()
	for _, w := range []int{0, 1, 2, 8} {
		// Every solve behind the explanation (base, forced probe, conflict
		// deletion filter) records into one flight recorder; a start event
		// opens the next stream.
		fr := obs.NewFlightRecorder(0)
		ex, err := Explain(specs, res, SolveOptions{Workers: w, Flight: fr})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if fr.Dropped() != 0 {
			t.Fatalf("workers=%d: recorder dropped %d records", w, fr.Dropped())
		}
		var streams [][]obs.SolveProgress
		for _, p := range fr.Snapshot() {
			if p.Kind == obs.SolveProgStart {
				streams = append(streams, nil)
			}
			streams[len(streams)-1] = append(streams[len(streams)-1], p)
		}
		cheap := ex.Attribution("cheap")
		if cheap == nil || !cheap.Enabled {
			t.Fatalf("workers=%d: cheap = %+v", w, cheap)
		}
		if cheap.Count != 10 || cheap.MaxCount != 10 || cheap.Binding != BindingMinInterval {
			t.Fatalf("workers=%d: cheap attribution = %+v", w, cheap)
		}
		exp := ex.Attribution("expensive")
		if exp == nil || exp.Enabled {
			t.Fatalf("workers=%d: expensive = %+v", w, exp)
		}
		if exp.ForcedFeasible {
			t.Fatalf("workers=%d: expensive forced probe should be infeasible: %+v", w, exp)
		}
		if !strings.Contains(exp.ForcedViolation, "time-threshold") {
			t.Fatalf("workers=%d: ForcedViolation = %q", w, exp.ForcedViolation)
		}
		// The minimal conflict must pair the forced membership with the time
		// row — and nothing else.
		want := map[string]bool{"force[expensive]": true, "time-threshold": true}
		if len(exp.Conflict) != 2 || !want[exp.Conflict[0]] || !want[exp.Conflict[1]] {
			t.Fatalf("workers=%d: conflict = %v", w, exp.Conflict)
		}
		// The forced probe's root is proven infeasible by presolve alone (the
		// time row caps every expensive mode at 0, the force row needs one):
		// its flight stream is start -> end with no node, and like every
		// other stream it must satisfy the recorder's invariants.
		presolved := 0
		for i, recs := range streams {
			if err := obs.CheckSolveProg(recs); err != nil {
				t.Fatalf("workers=%d: stream %d: %v", w, i, err)
			}
			if end := recs[len(recs)-1]; len(recs) == 2 && end.Kind == obs.SolveProgEnd &&
				end.Status == milp.Infeasible.String() && end.Nodes == 0 {
				presolved++
			}
		}
		if presolved == 0 {
			t.Fatalf("workers=%d: no presolve-proven infeasible start->end stream among %d", w, len(streams))
		}
	}
}

func TestExplainTimeBound(t *testing.T) {
	// One analysis, interval 1, budget that fits exactly 5 of its steps:
	// binding must be the time threshold with the leftover slack reported.
	specs := []AnalysisSpec{{Name: "a", CT: 1, OT: 0, OutputOptional: true, MinInterval: 1}}
	res := Resources{Steps: 50, TimeThreshold: 5.4}
	ex, err := Explain(specs, res, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	at := ex.Attribution("a")
	if !at.Enabled || at.Count != 5 {
		t.Fatalf("attribution = %+v", at)
	}
	if at.Binding != BindingTime {
		t.Fatalf("binding = %q, want %q", at.Binding, BindingTime)
	}
	if math.Abs(at.BindingSlack-0.4) > 1e-6 {
		t.Fatalf("slack = %g, want 0.4", at.BindingSlack)
	}
	if math.Abs(at.NextStepCost-1) > 1e-6 {
		t.Fatalf("next step cost = %g, want 1", at.NextStepCost)
	}
	// The time row reports the integer optimum's slack. Its root-relaxation
	// dual is zero here: with a single analysis the one-mode row binds
	// first (the largest surviving mode always fits the budget that kept
	// it from being pruned).
	if len(ex.Rows) != 1 || ex.Rows[0].Name != "time-threshold" {
		t.Fatalf("rows = %+v", ex.Rows)
	}
	row := ex.Rows[0]
	if math.Abs(row.Slack-0.4) > 1e-6 || row.Binding {
		t.Fatalf("row = %+v", row)
	}
}

func TestExplainMemoryBound(t *testing.T) {
	// Without outputs (k=0) each analysis step accumulates CM, so the peak
	// grows 20 B per step: count 4 peaks at 90 B under the 100 B ceiling,
	// count 5 needs 110 B. Every output mode (k >= 1) spikes past the
	// ceiling on OM, so memory — not time (budget 100 s vs 0.1 s/step) —
	// is what blocks the fifth step.
	specs := []AnalysisSpec{{Name: "m", CT: 0.1, OutputOptional: true, FM: 10, CM: 20, OM: 1 << 20, MinInterval: 1}}
	res := Resources{Steps: 10, TimeThreshold: 100, MemThreshold: 100}
	ex, err := Explain(specs, res, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	at := ex.Attribution("m")
	if !at.Enabled || at.Count != 4 {
		t.Fatalf("attribution = %+v", at)
	}
	if at.Count >= at.MaxCount {
		t.Fatalf("count %d saturated the interval ceiling %d; instance must leave headroom", at.Count, at.MaxCount)
	}
	if at.Binding != BindingMemory {
		t.Fatalf("binding = %q (count %d, slack %g)", at.Binding, at.Count, at.BindingSlack)
	}
	if math.Abs(at.BindingSlack-10) > 1e-6 {
		t.Fatalf("memory slack = %g, want 10", at.BindingSlack)
	}
	if len(ex.Rows) != 2 {
		t.Fatalf("rows = %+v, want time+memory", ex.Rows)
	}
	for _, row := range ex.Rows {
		if row.Name == "memory-threshold" {
			if math.Abs(row.Slack-10) > 1e-6 || row.Binding {
				t.Fatalf("memory row = %+v", row)
			}
		}
	}
}

func TestExplainFeasibleCounterfactual(t *testing.T) {
	// Two analyses competing for one budget: alone each fits, together they
	// do not. The heavier-weighted one wins; forcing the loser on must be
	// feasible with a negative objective delta.
	specs := []AnalysisSpec{
		{Name: "w", CT: 3, OT: 0, OutputOptional: true, Weight: 5, MinInterval: 50},
		{Name: "l", CT: 4, OT: 0, OutputOptional: true, Weight: 1, MinInterval: 50},
	}
	res := Resources{Steps: 100, TimeThreshold: 6.5}
	ex, err := Explain(specs, res, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w, l := ex.Attribution("w"), ex.Attribution("l")
	if !w.Enabled || l.Enabled {
		t.Fatalf("w=%+v l=%+v", w, l)
	}
	if !l.ForcedFeasible {
		t.Fatalf("forcing l should be feasible: %+v", l)
	}
	if l.ForcedDelta >= 0 {
		t.Fatalf("forced delta = %g, want negative", l.ForcedDelta)
	}
	if l.ForcedCount < 1 {
		t.Fatalf("forced count = %d", l.ForcedCount)
	}
	base := ex.Rec.Objective
	if math.Abs(l.ForcedObjective-(base+l.ForcedDelta)) > 1e-9 {
		t.Fatalf("delta inconsistent: %g vs %g-%g", l.ForcedDelta, l.ForcedObjective, base)
	}
	// Here the root relaxation packs a fraction of l into the leftover
	// budget, so the time row binds fractionally and carries a positive
	// shadow price (l's objective rate: 2 per 4 s = 0.5).
	if len(ex.Rows) != 1 || ex.Rows[0].Name != "time-threshold" {
		t.Fatalf("rows = %+v", ex.Rows)
	}
	if d := ex.Rows[0].Dual; math.Abs(d-0.5) > 1e-6 {
		t.Fatalf("time dual = %g, want 0.5", d)
	}
}

func TestExplainObserverStreamsBaseSolve(t *testing.T) {
	specs, res := explainSpecs()
	rec := milp.NewTreeRecorder()
	ex, err := Explain(specs, res, SolveOptions{Progress: rec.Observe})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Nodes()) == 0 {
		t.Fatal("observer saw no nodes")
	}
	// The probes must not leak into the recorded tree: every recorded node
	// id is unique (a second solve would restart at node 1).
	seen := map[int]bool{}
	for _, n := range rec.Nodes() {
		if seen[n.Node] {
			t.Fatalf("node id %d recorded twice: probe leaked into the observer", n.Node)
		}
		seen[n.Node] = true
	}
	if ex.Rec.Stats.Nodes != len(rec.Nodes()) {
		t.Fatalf("recorded %d nodes, stats say %d", len(rec.Nodes()), ex.Rec.Stats.Nodes)
	}
}

func TestExplainUnconstrainedSlacks(t *testing.T) {
	specs := []AnalysisSpec{{Name: "a", CT: 0.1, OT: 0.01, MinInterval: 10}}
	res := Resources{Steps: 20}
	ex, err := Explain(specs, res, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(ex.TimeSlack, 1) || !math.IsInf(ex.MemSlack, 1) {
		t.Fatalf("slacks = %g/%g, want +Inf", ex.TimeSlack, ex.MemSlack)
	}
	if len(ex.Rows) != 0 {
		t.Fatalf("rows = %+v, want none", ex.Rows)
	}
	if at := ex.Attribution("a"); at.Binding != BindingMinInterval {
		t.Fatalf("binding = %q", at.Binding)
	}
}
