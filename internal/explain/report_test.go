package explain

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"insitu/internal/core"
	"insitu/internal/experiments"
	"insitu/internal/milp"
	"insitu/internal/obs"
	"insitu/internal/scenario"
)

// waterIons returns the paper's LAMMPS A1-A4 scenario (100M-atom water+ions,
// 16384 ranks) at the given percent-of-simulation time threshold.
func waterIons(percent float64) ([]core.AnalysisSpec, core.Resources) {
	specs := experiments.WaterIonsSpecs(16384)
	res := core.Resources{
		Steps:         1000,
		TimeThreshold: core.PercentThreshold(experiments.WaterIonsSimSecPerStep(16384), 1000, percent),
		MemThreshold:  12 << 30,
	}
	return specs, res
}

// TestReportWaterIonsAttribution is the acceptance check of the
// explainability PR: on the paper's water+ions scenario every enabled
// analysis names its binding constraint and every disabled one carries a
// counterfactual (a priced forced schedule, or a named violation with a
// minimal conflict set).
func TestReportWaterIonsAttribution(t *testing.T) {
	for _, percent := range []float64{10, 1} {
		specs, res := waterIons(percent)
		r, err := Build(specs, res, Options{})
		if err != nil {
			t.Fatalf("%.0f%%: %v", percent, err)
		}
		if len(r.Ex.Attributions) != len(specs) {
			t.Fatalf("%.0f%%: %d attributions for %d specs", percent, len(r.Ex.Attributions), len(specs))
		}
		for _, at := range r.Ex.Attributions {
			if at.Enabled {
				if at.Binding == "" {
					t.Errorf("%.0f%%: enabled %s has no binding constraint", percent, at.Name)
				}
				continue
			}
			if at.ForcedFeasible {
				if at.ForcedCount < 1 {
					t.Errorf("%.0f%%: disabled %s forced on but count %d", percent, at.Name, at.ForcedCount)
				}
				continue
			}
			if at.ForcedViolation == "" || len(at.Conflict) == 0 {
				t.Errorf("%.0f%%: disabled %s has no counterfactual: %+v", percent, at.Name, at)
			}
		}
	}
}

func TestReportWaterIonsOnePercentConflict(t *testing.T) {
	// At a 1%% threshold (6.1 s) A4's 25.9 s step cannot fit: the probe must
	// be infeasible and the minimal conflict must pair the forced membership
	// with the time row.
	specs, res := waterIons(1)
	r, err := Build(specs, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a4 := r.Ex.Attribution("A4 msd")
	if a4 == nil || a4.Enabled {
		t.Fatalf("A4 = %+v", a4)
	}
	if a4.ForcedFeasible {
		t.Fatalf("A4 forced probe should be infeasible at 1%%: %+v", a4)
	}
	want := map[string]bool{"force[A4 msd]": true, "time-threshold": true}
	if len(a4.Conflict) != 2 || !want[a4.Conflict[0]] || !want[a4.Conflict[1]] {
		t.Fatalf("conflict = %v", a4.Conflict)
	}
	if !strings.Contains(a4.ForcedViolation, "time-threshold") {
		t.Fatalf("violation = %q", a4.ForcedViolation)
	}
}

func TestWriteTextSections(t *testing.T) {
	specs, res := waterIons(10)
	r, err := Build(specs, res, Options{GanttWidth: 80})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"== schedule ==", "== timeline", "== attribution ==",
		"== resource rows", "== search ==",
		"A1 hydronium rdf", "A4 msd", "binding=", "explored=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "planned vs executed") {
		t.Error("ledger section rendered without a ledger")
	}
}

func TestWriteHTMLSelfContained(t *testing.T) {
	specs, res := waterIons(10)
	r, err := Build(specs, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteHTML(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "<style>", "Attribution", "A4 msd", "Search",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("html missing %q", want)
		}
	}
	for _, banned := range []string{"<script src", "href=\"http", "src=\"http"} {
		if strings.Contains(out, banned) {
			t.Errorf("html references an external asset: %q", banned)
		}
	}
}

func TestBuildRecordsTree(t *testing.T) {
	specs, res := waterIons(10)
	r, err := Build(specs, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := r.Ex.Rec.Stats
	if st.Nodes == 0 || st.Nodes != len(r.Recorder.Nodes()) {
		t.Fatalf("stats = %+v over %d nodes", st, len(r.Recorder.Nodes()))
	}
	var dot bytes.Buffer
	if err := r.Recorder.WriteDOT(&dot); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), "digraph bnb") {
		t.Fatalf("dot = %q", dot.String())
	}
	// Variable names from CompactNames must reach the branch labels whenever
	// the search actually branched.
	if st.BranchedNodes > 1 && !strings.Contains(dot.String(), "x[A") {
		t.Errorf("dot lacks named branch labels:\n%s", dot.String())
	}
}

func TestAlignLedger(t *testing.T) {
	specs, res := waterIons(10)
	r, err := Build(specs, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	events := []obs.LedgerEvent{
		{Schema: 1, Type: obs.LedgerRunStart, Name: "lammps-mini"},
		{Schema: 1, Type: obs.LedgerStep, Step: 100, Dur: 610000},
		{Schema: 1, Type: obs.LedgerAnalysis, Name: "A1 hydronium rdf", Step: 100, Dur: 65300},
		{Schema: 1, Type: obs.LedgerOutput, Name: "A1 hydronium rdf", Step: 100, Dur: 5000, Bytes: 8 << 20},
		{Schema: 1, Type: obs.LedgerStep, Step: 200, Dur: 610000},
		{Schema: 1, Type: obs.LedgerAnalysis, Name: "A1 hydronium rdf", Step: 200, Dur: 65300},
		{Schema: 1, Type: obs.LedgerAnalysis, Name: "ghost kernel", Step: 200, Dur: 1000},
	}
	r.AlignLedger(events)
	if r.Ledger == nil || r.Ledger.App != "lammps-mini" || r.Ledger.Steps != 2 {
		t.Fatalf("alignment = %+v", r.Ledger)
	}
	byName := map[string]KernelAlignment{}
	for _, k := range r.Ledger.Kernels {
		byName[k.Name] = k
	}
	a1 := byName["A1 hydronium rdf"]
	if a1.ExecutedCount != 2 || a1.PlannedCount != 10 {
		t.Fatalf("A1 = %+v", a1)
	}
	// 65300+5000+65300 us = 0.1356 s
	if a1.ExecutedSec < 0.135 || a1.ExecutedSec > 0.136 {
		t.Fatalf("A1 executed sec = %g", a1.ExecutedSec)
	}
	ghost, ok := byName["ghost kernel"]
	if !ok || ghost.PlannedCount != 0 || ghost.ExecutedCount != 1 {
		t.Fatalf("ghost = %+v (ok=%v)", ghost, ok)
	}

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "planned vs executed") || !strings.Contains(out, "drift") {
		t.Errorf("ledger section missing from report:\n%s", out)
	}
}

func TestAlignLedgerFlights(t *testing.T) {
	specs, res := waterIons(10)
	r, err := Build(specs, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := []obs.SolveProgress{
		{Seq: 0, Kind: obs.SolveProgStart, Workers: 1, Vars: 8, IntVars: 4, Constraints: 10},
		{Seq: 1, Kind: obs.SolveProgNode, Workers: 1, Nodes: 1, Open: 1,
			HasInc: true, Incumbent: 5, HasBound: true, Bound: 9},
		{Seq: 2, Kind: obs.SolveProgEnd, Workers: 1, Nodes: 2,
			HasInc: true, Incumbent: 7, HasBound: true, Bound: 7, Status: "optimal"},
	}
	events := []obs.LedgerEvent{{Schema: 1, Type: obs.LedgerRunStart, Name: "lammps-mini"}}
	for _, p := range recs {
		events = append(events, p.Event("plan"))
	}
	r.AlignLedger(events)
	if len(r.Ledger.Flights) != 1 || r.Ledger.Flights[0].Name != "plan" {
		t.Fatalf("flights = %+v", r.Ledger.Flights)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"solve progress plan", "final: optimal, objective 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	// A ledger without solveprog events renders no flight section.
	r2, err := Build(specs, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2.AlignLedger(events[:1])
	var buf2 bytes.Buffer
	if err := r2.WriteText(&buf2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf2.String(), "solve progress") {
		t.Error("old ledger grew a flight section")
	}
}

// TestLedgerRebuildsGoldenTrees: on every golden scenario, the flight stream
// a report's solve drains to a ledger rebuilds the -tree document the report
// recorded live, byte for byte. The probes record into the same flight
// recorder after the base solve, so the base solve is the ledger's first run.
func TestLedgerRebuildsGoldenTrees(t *testing.T) {
	files, err := filepath.Glob("../experiments/testdata/golden/scenario_*.json")
	if err != nil || len(files) != 4 {
		t.Fatalf("golden scenarios: %v, %v", files, err)
	}
	for _, f := range files {
		specs, res, err := scenario.LoadSpecs(f)
		if err != nil {
			t.Fatal(err)
		}
		fr := obs.NewFlightRecorder(0)
		r, err := Build(specs, res, Options{Solve: core.SolveOptions{Flight: fr}})
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		var ledger bytes.Buffer
		l := obs.NewEventLog(&ledger)
		fr.AppendLedger(l, "explain")
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		events, err := obs.ReadLedger(&ledger)
		if err != nil {
			t.Fatal(err)
		}
		runs := obs.GroupSolveProgEvents(events)
		if len(runs) == 0 {
			t.Fatalf("%s: ledger holds no solve", f)
		}
		rebuilt := milp.NewTreeRecorder()
		rebuilt.SetNames(r.Recorder.Tree().Names)
		for _, p := range runs[0].Records {
			rebuilt.Observe(p)
		}
		var want, got bytes.Buffer
		if err := r.Recorder.WriteJSON(&want); err != nil {
			t.Fatal(err)
		}
		if err := rebuilt.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if len(r.Recorder.Nodes()) == 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: tree rebuilt from the ledger differs from the live one:\n%s\nwant\n%s", f, got.String(), want.String())
		}
	}
}
