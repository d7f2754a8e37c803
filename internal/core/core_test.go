package core

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// fourAnalyses builds a Table-5-like analysis set: three cheap scalable
// analyses and one expensive memory-heavy one (A4/msd).
func fourAnalyses() []AnalysisSpec {
	return []AnalysisSpec{
		{Name: "A1", CT: 0.06, OT: 0.01, FM: 1 << 20, CM: 1 << 18, OM: 1 << 18, MinInterval: 100},
		{Name: "A2", CT: 0.06, OT: 0.01, FM: 1 << 20, CM: 1 << 18, OM: 1 << 18, MinInterval: 100},
		{Name: "A3", CT: 0.08, OT: 0.01, FM: 1 << 20, CM: 1 << 18, OM: 1 << 18, MinInterval: 100},
		{Name: "A4", CT: 24.0, OT: 2.0, FM: 64 << 20, IM: 1 << 16, CM: 16 << 20, OM: 8 << 20, MinInterval: 100},
	}
}

func mustSolve(t *testing.T, specs []AnalysisSpec, res Resources) *Recommendation {
	t.Helper()
	rec, err := Solve(specs, res, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestExpandSteps(t *testing.T) {
	got := expandSteps(1000, 10)
	if len(got) != 10 || got[0] != 100 || got[9] != 1000 {
		t.Fatalf("expandSteps = %v", got)
	}
	if expandSteps(1000, 0) != nil {
		t.Fatal("zero count must expand to nil")
	}
	// Spacing >= itv when count <= steps/itv.
	steps := expandSteps(1000, 7)
	prev := 0
	for _, s := range steps {
		if s-prev < 1000/7 {
			t.Fatalf("spacing violation in %v", steps)
		}
		prev = s
	}
}

func TestExpandOutputs(t *testing.T) {
	as := []int{100, 200, 300, 400, 500}
	os := expandOutputs(as, 2)
	// Every 2nd analysis plus the final step.
	want := []int{200, 400, 500}
	if len(os) != len(want) {
		t.Fatalf("outputs = %v", os)
	}
	for i := range want {
		if os[i] != want[i] {
			t.Fatalf("outputs = %v, want %v", os, want)
		}
	}
	if got := expandOutputs(as, 5); len(got) != 1 || got[0] != 500 {
		t.Fatalf("k=n outputs = %v", got)
	}
	if expandOutputs(nil, 1) != nil {
		t.Fatal("no analyses -> no outputs")
	}
}

func TestSolveTable5Shape(t *testing.T) {
	// The Table-5 shape: as the threshold shrinks, A1-A3 stay at the max
	// frequency (10 in 1000 steps) and A4's count decays to zero.
	specs := fourAnalyses()
	simTime := 646.78 // seconds for 1000 steps (paper's run)
	res := Resources{Steps: 1000, MemThreshold: 1 << 30}

	prevA4 := 11
	for _, pct := range []float64{20, 10, 5, 1} {
		res.TimeThreshold = PercentThreshold(simTime/1000, 1000, pct)
		rec := mustSolve(t, specs, res)
		for _, name := range []string{"A1", "A2", "A3"} {
			if got := rec.Schedule(name).Count; got != 10 {
				t.Fatalf("pct=%g: %s count = %d, want 10", pct, name, got)
			}
		}
		a4 := rec.Schedule("A4").Count
		if a4 > prevA4 {
			t.Fatalf("pct=%g: A4 count %d increased from %d", pct, a4, prevA4)
		}
		prevA4 = a4
		if rec.TotalTime > res.TimeThreshold+1e-9 {
			t.Fatalf("pct=%g: time %g over threshold %g", pct, rec.TotalTime, res.TimeThreshold)
		}
	}
	// At 20% A4 must run several times; at 1% it must be shut out.
	res.TimeThreshold = PercentThreshold(simTime/1000, 1000, 20)
	if mustSolve(t, specs, res).Schedule("A4").Count < 2 {
		t.Fatal("20% threshold should afford multiple A4 runs")
	}
	res.TimeThreshold = PercentThreshold(simTime/1000, 1000, 1)
	if got := mustSolve(t, specs, res).Schedule("A4").Count; got != 0 {
		t.Fatalf("1%% threshold: A4 count = %d, want 0", got)
	}
}

func TestSolveMatchesBruteForceUnconstMemory(t *testing.T) {
	// With a loose memory ceiling the compact MILP must equal brute force.
	specs := []AnalysisSpec{
		{Name: "x", CT: 1.0, OT: 0.2, MinInterval: 10},
		{Name: "y", CT: 2.5, OT: 0.1, MinInterval: 20},
		{Name: "z", CT: 0.3, OT: 0.6, MinInterval: 25},
	}
	res := Resources{Steps: 100, TimeThreshold: 14}
	got := mustSolve(t, specs, res)
	want, err := BruteForceSolve(specs, res)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Objective-want.Objective) > 1e-9 {
		t.Fatalf("objective %g != brute force %g", got.Objective, want.Objective)
	}
}

// Property: on random instances without a memory constraint, the compact
// MILP matches exhaustive mode enumeration exactly.
func TestSolveMatchesBruteForceRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nA := 1 + rng.Intn(3)
		specs := make([]AnalysisSpec, nA)
		for i := range specs {
			specs[i] = AnalysisSpec{
				Name:        string(rune('a' + i)),
				FT:          rng.Float64() * 0.5,
				IT:          rng.Float64() * 0.001,
				CT:          0.1 + rng.Float64()*3,
				OT:          rng.Float64(),
				Weight:      0.5 + rng.Float64()*2,
				MinInterval: 5 + rng.Intn(20),
			}
		}
		res := Resources{Steps: 60, TimeThreshold: 2 + rng.Float64()*20}
		got, err := Solve(specs, res, SolveOptions{})
		if err != nil {
			return false
		}
		want, err := BruteForceSolve(specs, res)
		if err != nil {
			// Brute force found nothing feasible; Solve must agree by
			// scheduling nothing.
			return got.TotalAnalyses() == 0
		}
		return math.Abs(got.Objective-want.Objective) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryConstraintExcludesHeavyAnalysis(t *testing.T) {
	specs := []AnalysisSpec{
		{Name: "light", CT: 0.1, FM: 1 << 20, CM: 1 << 20, MinInterval: 10},
		{Name: "heavy", CT: 0.1, FM: 900 << 20, CM: 200 << 20, MinInterval: 10},
	}
	res := Resources{Steps: 100, TimeThreshold: 1000, MemThreshold: 1 << 30}
	rec := mustSolve(t, specs, res)
	if !rec.Schedule("light").Enabled {
		t.Fatal("light analysis should be enabled")
	}
	if rec.Schedule("heavy").Enabled {
		t.Fatal("heavy analysis exceeds the memory ceiling with the light one resident")
	}
	if rec.PeakMemory > res.MemThreshold {
		t.Fatalf("peak memory %d over threshold", rec.PeakMemory)
	}
}

func TestIMAccumulationForcesFrequentOutput(t *testing.T) {
	// im accumulates between outputs; with a tight memory ceiling the solver
	// must pick a mode that outputs often enough to reset the buffer.
	specs := []AnalysisSpec{{
		Name: "temporal", CT: 0.01, OT: 0.01,
		FM: 1 << 20, IM: 1 << 20, // 1 MiB per step
		MinInterval: 10,
	}}
	res := Resources{Steps: 100, TimeThreshold: 10, MemThreshold: 40 << 20}
	rec := mustSolve(t, specs, res)
	s := rec.Schedule("temporal")
	if !s.Enabled {
		t.Fatal("analysis should fit with frequent outputs")
	}
	if s.Outputs < 3 {
		t.Fatalf("outputs = %d; the 40 MiB ceiling needs resets at least every ~38 steps", s.Outputs)
	}
	if rec.PeakMemory > res.MemThreshold {
		t.Fatalf("peak %d over ceiling", rec.PeakMemory)
	}
}

func TestWeightsShiftSchedule(t *testing.T) {
	// The Table-8 scenario: with equal weights, the expensive F1 runs once;
	// prioritizing F1 and F3 shifts counts toward them.
	specs := []AnalysisSpec{
		{Name: "F1", CT: 3.5, MinInterval: 100},
		{Name: "F2", CT: 1.25, MinInterval: 100},
		{Name: "F3", CT: 0.0023, MinInterval: 100},
	}
	res := Resources{Steps: 1000, TimeThreshold: 43.5}
	equal := mustSolve(t, specs, res)

	specs[0].Weight, specs[1].Weight, specs[2].Weight = 2, 1, 2
	weighted := mustSolve(t, specs, res)

	if weighted.Schedule("F1").Count <= equal.Schedule("F1").Count {
		t.Fatalf("weighting F1 should raise its count: %d -> %d",
			equal.Schedule("F1").Count, weighted.Schedule("F1").Count)
	}
	if weighted.Schedule("F3").Count != 10 {
		t.Fatalf("cheap F3 should stay at max frequency, got %d", weighted.Schedule("F3").Count)
	}
	if weighted.Schedule("F2").Count > equal.Schedule("F2").Count {
		t.Fatal("deprioritized F2 should not gain analyses")
	}
}

func TestFullMatchesCompactSmall(t *testing.T) {
	// On a small instance with time constraint only, both exact
	// formulations must reach the same objective.
	specs := []AnalysisSpec{
		{Name: "p", CT: 1, OT: 0.5, MinInterval: 3},
		{Name: "q", CT: 2, OT: 0.25, MinInterval: 4},
	}
	res := Resources{Steps: 12, TimeThreshold: 7}
	compact := mustSolve(t, specs, res)
	full, err := SolveFull(specs, res, SolveOptions{MaxNodes: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if full.Objective < compact.Objective-1e-6 {
		t.Fatalf("full objective %g below compact %g", full.Objective, compact.Objective)
	}
	// The compact model restricts to evenly-spread schedules, so full >=
	// compact; with only an aggregate time row they must be equal.
	if full.Objective > compact.Objective+1e-6 {
		t.Fatalf("full objective %g above compact %g — compact should be tight here", full.Objective, compact.Objective)
	}
}

func TestFullModelMemoryReset(t *testing.T) {
	// One analysis whose im accumulation forces outputs under a ceiling:
	// the full model must produce a schedule whose exact memory trace fits.
	specs := []AnalysisSpec{{
		Name: "m", CT: 0.1, OT: 0.1,
		FM: 1 << 20, IM: 1 << 20,
		MinInterval: 2,
	}}
	res := Resources{Steps: 10, TimeThreshold: 5, MemThreshold: 6 << 20}
	rec, err := SolveFull(specs, res, SolveOptions{MaxNodes: 50000})
	if err != nil {
		t.Fatal(err)
	}
	s := rec.Schedule("m")
	if !s.Enabled {
		t.Fatal("analysis should be schedulable")
	}
	if len(s.OutputSteps) == 0 {
		t.Fatal("memory ceiling requires output resets")
	}
	if rec.PeakMemory > res.MemThreshold {
		t.Fatalf("peak %d over ceiling %d", rec.PeakMemory, res.MemThreshold)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	specs := []AnalysisSpec{{Name: "a", CT: 1, MinInterval: 10}}
	res := Resources{Steps: 100, TimeThreshold: 100}
	rec := &Recommendation{Schedules: []AnalysisSchedule{{
		Name: "a", Enabled: true, Count: 2, AnalysisSteps: []int{10, 15},
	}}}
	if err := rec.Validate(specs, res); err == nil || !strings.Contains(err.Error(), "interval") {
		t.Fatalf("expected interval violation, got %v", err)
	}
	rec.Schedules[0].AnalysisSteps = []int{10, 200}
	if err := rec.Validate(specs, res); err == nil {
		t.Fatal("expected out-of-range violation")
	}
	rec.Schedules[0].AnalysisSteps = []int{10, 20}
	rec.Schedules[0].OutputSteps = []int{15}
	if err := rec.Validate(specs, res); err == nil || !strings.Contains(err.Error(), "without an analysis") {
		t.Fatalf("expected output-subset violation, got %v", err)
	}
	rec.Schedules[0].OutputSteps = nil
	res.TimeThreshold = 1
	if err := rec.Validate(specs, res); err == nil || !strings.Contains(err.Error(), "exceeds threshold") {
		t.Fatalf("expected time violation, got %v", err)
	}
}

// TestValidateTakesOutputStepsInAnyOrder: OutputSteps is a set to Validate.
// Given out of order it is judged as if sorted (subset test and the memory
// reset at each output alike) and handed back as it came.
func TestValidateTakesOutputStepsInAnyOrder(t *testing.T) {
	specs := []AnalysisSpec{{Name: "a", FM: 100, IM: 10, CM: 50, OM: 5, MinInterval: 10}}
	// Peak with an output at every analysis: fm + 10 steps of im + cm + om.
	res := Resources{Steps: 30, MemThreshold: 100 + 10*10 + 50 + 5}
	rec := &Recommendation{Schedules: []AnalysisSchedule{{
		Name: "a", Enabled: true, Count: 3, AnalysisSteps: []int{10, 20, 30}, OutputSteps: []int{30, 10, 20},
	}}}
	if err := rec.Validate(specs, res); err != nil {
		t.Fatalf("out-of-order outputs rejected: %v", err)
	}
	if got := rec.Schedules[0].OutputSteps; !reflect.DeepEqual(got, []int{30, 10, 20}) {
		t.Fatalf("Validate reordered the caller's OutputSteps to %v", got)
	}
	rec.Schedules[0].OutputSteps = []int{30, 20} // no reset at 10: memory carries to step 20
	if err := rec.Validate(specs, res); err == nil || !strings.Contains(err.Error(), "memory") {
		t.Fatalf("expected memory violation at step 20, got %v", err)
	}
	rec.Schedules[0].OutputSteps = []int{30, 15, 10}
	if err := rec.Validate(specs, res); err == nil || !strings.Contains(err.Error(), "step 15 without an analysis") {
		t.Fatalf("expected output-subset violation, got %v", err)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []AnalysisSpec{
		{Name: ""},
		{Name: "a", CT: -1},
		{Name: "a", FM: -1},
		{Name: "a", Weight: -1},
	}
	for i, b := range bad {
		if b.Validate() == nil {
			t.Fatalf("case %d should fail validation", i)
		}
	}
	if _, err := Solve(bad[1:2], Resources{Steps: 10, TimeThreshold: 1}, SolveOptions{}); err == nil {
		t.Fatal("Solve must reject invalid specs")
	}
	if _, err := Solve(nil, Resources{Steps: 0}, SolveOptions{}); err == nil {
		t.Fatal("Solve must reject invalid resources")
	}
}

func TestOutputTimeDerivedFromBandwidth(t *testing.T) {
	a := AnalysisSpec{Name: "a", OM: 1 << 30}
	if got := a.outputTime(1 << 30); got != 1 {
		t.Fatalf("derived ot = %g, want 1s", got)
	}
	a.OT = 0.5
	if got := a.outputTime(1 << 30); got != 0.5 {
		t.Fatal("explicit OT must win")
	}
	a = AnalysisSpec{Name: "a"}
	if got := a.outputTime(1 << 30); got != 0 {
		t.Fatalf("no om, no ot -> %g", got)
	}
}

func TestGreedyFeasibleAndDominatedByMILP(t *testing.T) {
	specs := fourAnalyses()
	res := Resources{
		Steps:         1000,
		TimeThreshold: 60,
		MemThreshold:  1 << 30,
	}
	greedy, err := GreedySolve(specs, res)
	if err != nil {
		t.Fatal(err)
	}
	opt := mustSolve(t, specs, res)
	if greedy.Objective > opt.Objective+1e-9 {
		t.Fatalf("greedy %g beats MILP %g", greedy.Objective, opt.Objective)
	}
	if greedy.TotalTime > res.TimeThreshold {
		t.Fatal("greedy schedule over budget")
	}
}

func TestFixedFrequencyOverBudget(t *testing.T) {
	specs := fourAnalyses()
	res := Resources{Steps: 1000, TimeThreshold: 6.5} // ~1% threshold
	rec, err := FixedFrequency(specs, res, 1)
	if err == nil {
		t.Fatalf("naive fixed-frequency schedule must blow a 1%% budget (time %g)", rec.TotalTime)
	}
}

func TestCouplingStringFigure1(t *testing.T) {
	// Figure 1: analysis every 4 steps, output every 2 analyses, simulation
	// output every 5 steps.
	res := Resources{Steps: 12}
	s := AnalysisSchedule{
		Enabled: true, Count: 3,
		AnalysisSteps: []int{4, 8, 12},
		OutputSteps:   []int{8},
	}
	got := CouplingString(res, s, 5)
	want := "SSSSASOsSSSAOaSSOsSSA"
	if got != want {
		t.Fatalf("coupling string = %q, want %q", got, want)
	}
}

func TestRecommendationHelpers(t *testing.T) {
	specs := fourAnalyses()
	res := Resources{Steps: 1000, TimeThreshold: 130, MemThreshold: 1 << 30}
	rec := mustSolve(t, specs, res)
	if rec.Schedule("nope") != nil {
		t.Fatal("unknown schedule should be nil")
	}
	if rec.EnabledCount() < 3 {
		t.Fatalf("enabled = %d", rec.EnabledCount())
	}
	if rec.TotalAnalyses() < 30 {
		t.Fatalf("total analyses = %d", rec.TotalAnalyses())
	}
	u := rec.Utilization(res)
	if u <= 0 || u > 1 {
		t.Fatalf("utilization = %g", u)
	}
	if !strings.Contains(rec.String(), "A1") {
		t.Fatal("String() missing analysis names")
	}
	if (&Recommendation{}).Utilization(Resources{}) != 0 {
		t.Fatal("zero-threshold utilization must be 0")
	}
}

func TestPercentThreshold(t *testing.T) {
	// 10% of a 646.78 s simulation.
	got := PercentThreshold(0.64678, 1000, 10)
	if math.Abs(got-64.678) > 1e-9 {
		t.Fatalf("threshold = %g", got)
	}
}

func TestSolverRuntimeWithinPaperRange(t *testing.T) {
	// The paper reports 0.17-1.36 s with CPLEX. The compact model's search on
	// the Table-5 instance is held to the work behind the time instead: the
	// crash basis is the root optimum, one pivot proves it, and it is
	// integral, so one node ends the search.
	specs := fourAnalyses()
	res := Resources{Steps: 1000, TimeThreshold: 129.35, MemThreshold: 1 << 30}
	rec := mustSolve(t, specs, res)
	if rec.Stats.Nodes != 1 || rec.Stats.Pivots != 1 {
		t.Fatalf("solve took %d nodes and %d pivots, want 1 and 1", rec.Stats.Nodes, rec.Stats.Pivots)
	}
}

// Property: the recommendation never violates its envelope, for random
// envelopes.
func TestSolveAlwaysFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		specs := fourAnalyses()
		res := Resources{
			Steps:         1000,
			TimeThreshold: rng.Float64() * 200,
			MemThreshold:  int64(rng.Intn(1<<30) + 1<<22),
		}
		rec, err := Solve(specs, res, SolveOptions{})
		if err != nil {
			return false
		}
		return rec.Validate(specs, res) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestSolveNearIntegralNodeKeepsRows pins three thresholds (found by the
// benchmark's seeded sweeps over the paper's water+ions and FLASH profiles)
// where a node relaxation leaves a binary at 1-1e-6: integral within
// tolerance, but snapped to 1 its ~25 s / ~1500 s cost overshoots the time
// row by more than Validate allows. The search must branch such a node, not
// adopt its snapped point, at any width.
func TestSolveNearIntegralNodeKeepsRows(t *testing.T) {
	waterIons := []AnalysisSpec{
		{Name: "A1 hydronium rdf", CT: 0.0653, OT: 0.005, FM: 64 << 20, CM: 16 << 20, OM: 8 << 20, MinInterval: 100},
		{Name: "A2 ion rdf", CT: 0.0653, OT: 0.005, FM: 64 << 20, CM: 16 << 20, OM: 8 << 20, MinInterval: 100},
		{Name: "A3 vacf", CT: 0.0654, OT: 0.005, FM: 128 << 20, CM: 16 << 20, OM: 8 << 20, MinInterval: 100},
		{Name: "A4 msd", CT: 25.85, OT: 0.05, FM: 4 << 30, IM: 1 << 20, CM: 1 << 30, OM: 512 << 20, MinInterval: 100},
	}
	flash := []AnalysisSpec{
		{Name: "F1 vorticity", CT: 3.5, OT: 24.0, FM: 256 << 20, CM: 128 << 20, OM: 2 << 30, MinInterval: 100},
		{Name: "F2 L1 error norm", CT: 1.25, OT: 3.2, FM: 16 << 20, CM: 1 << 20, OM: 1 << 20, MinInterval: 100},
		{Name: "F3 L2 error norm", CT: 0.0023, OT: 0.0005, FM: 1 << 20, CM: 1 << 18, OM: 1 << 16, MinInterval: 100},
	}
	cases := []struct {
		name      string
		specs     []AnalysisSpec
		threshold float64
	}{
		{"water+ions, fails at width 0", waterIons, 131.3149029911305},
		{"water+ions, fails at width 2", waterIons, 157.15854525359646},
		{"flash, fails at both", flash, 64.2234963371769},
	}
	for _, c := range cases {
		res := Resources{Steps: 1000, TimeThreshold: c.threshold, MemThreshold: 12 << 30}
		var objs []float64
		for _, w := range []int{0, 2} {
			rec, err := Solve(c.specs, res, SolveOptions{Workers: w})
			if err != nil {
				t.Fatalf("%s, workers=%d: %v", c.name, w, err)
			}
			if err := rec.Validate(c.specs, res); err != nil {
				t.Fatalf("%s, workers=%d: %v", c.name, w, err)
			}
			objs = append(objs, rec.Objective)
		}
		if objs[0] != objs[1] {
			t.Fatalf("%s: objective %g at width 0, %g at width 2", c.name, objs[0], objs[1])
		}
	}
}

func TestLexicographicMatchesPaperTable8(t *testing.T) {
	// The Table-8 scenario: under priority semantics, weights (2,1,2) put
	// {F1,F3} in a class above {F2}; the high class consumes the budget
	// first and F2 is shut out.
	specs := []AnalysisSpec{
		{Name: "F1", CT: 3.5, OT: 24, Weight: 2, MinInterval: 100},
		{Name: "F2", CT: 1.25, OT: 3.2, Weight: 1, MinInterval: 100},
		{Name: "F3", CT: 0.0023, OT: 0.0005, Weight: 2, MinInterval: 100},
	}
	res := Resources{Steps: 1000, TimeThreshold: 43.5}
	rec, err := SolveLexicographic(specs, res, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Schedule("F1").Count; got != 5 {
		t.Fatalf("F1 = %d, want 5", got)
	}
	if got := rec.Schedule("F2").Count; got != 0 {
		t.Fatalf("F2 = %d, want 0", got)
	}
	if got := rec.Schedule("F3").Count; got != 10 {
		t.Fatalf("F3 = %d, want 10", got)
	}
	if err := rec.Validate(specs, res); err != nil {
		t.Fatal(err)
	}
}

// TestLexicographicStatsKeepTaxonomy: a lexicographic recommendation sums
// the statistics of one solve per priority class, and the sum must still
// satisfy the documented invariant Nodes == Σ prune-reason taxonomy.
func TestLexicographicStatsKeepTaxonomy(t *testing.T) {
	specs := fourAnalyses()
	specs[0].Weight, specs[3].Weight = 2, 2 // two classes: {A1,A4} over {A2,A3}
	res := Resources{Steps: 1000, TimeThreshold: 64.69, MemThreshold: 12 << 30}
	rec, err := SolveLexicographic(specs, res, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := rec.Stats
	if st.Nodes < 2 {
		t.Fatalf("Stats.Nodes = %d, want one root per class", st.Nodes)
	}
	if sum := st.PrunedBound + st.PrunedInfeasible + st.IntegralNodes + st.BranchedNodes; sum != st.Nodes {
		t.Fatalf("taxonomy sums to %d for %d nodes: %+v", sum, st.Nodes, st)
	}
}

func TestLexicographicSingleClassEqualsSolve(t *testing.T) {
	specs := fourAnalyses()
	res := Resources{Steps: 1000, TimeThreshold: 64.69, MemThreshold: 12 << 30}
	lex, err := SolveLexicographic(specs, res, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lin, err := Solve(specs, res, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lex.Objective-lin.Objective) > 1e-9 {
		t.Fatalf("single weight class: lexicographic %g != linear %g", lex.Objective, lin.Objective)
	}
}

func TestLexicographicValidation(t *testing.T) {
	if _, err := SolveLexicographic(nil, Resources{}, SolveOptions{}); err == nil {
		t.Fatal("expected resource validation error")
	}
	bad := []AnalysisSpec{{Name: "", CT: 1}}
	if _, err := SolveLexicographic(bad, Resources{Steps: 10, TimeThreshold: 1}, SolveOptions{}); err == nil {
		t.Fatal("expected spec validation error")
	}
}

func TestLexicographicNeverInfeasible(t *testing.T) {
	// Even when the high-priority class eats the whole budget, lower
	// classes must solve cleanly to empty schedules.
	specs := []AnalysisSpec{
		{Name: "hog", CT: 100, Weight: 9, MinInterval: 1},
		{Name: "small", CT: 0.1, Weight: 1, MinInterval: 1},
	}
	res := Resources{Steps: 10, TimeThreshold: 100}
	rec, err := SolveLexicographic(specs, res, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Schedule("hog").Count != 1 {
		t.Fatalf("hog count = %d", rec.Schedule("hog").Count)
	}
	if rec.TotalTime > res.TimeThreshold {
		t.Fatal("over budget")
	}
}

// Property: on random tiny instances with time constraint only, the full
// time-indexed model and the compact mode model agree on the objective (the
// compact even-spread restriction is tight when only the aggregate time row
// binds).
func TestFullMatchesCompactRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nA := 1 + rng.Intn(2)
		specs := make([]AnalysisSpec, nA)
		for i := range specs {
			specs[i] = AnalysisSpec{
				Name:        string(rune('a' + i)),
				CT:          0.5 + rng.Float64()*2,
				OT:          rng.Float64() * 0.5,
				MinInterval: 2 + rng.Intn(3),
			}
		}
		res := Resources{Steps: 8 + rng.Intn(5), TimeThreshold: 1 + rng.Float64()*8}
		compact, err := Solve(specs, res, SolveOptions{})
		if err != nil {
			return false
		}
		full, err := SolveFull(specs, res, SolveOptions{MaxNodes: 20000})
		if err != nil {
			return false
		}
		return math.Abs(full.Objective-compact.Objective) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestOutputOptionalSkipsOutputs(t *testing.T) {
	// With optional output and nonzero ot, the optimum never writes.
	specs := []AnalysisSpec{{
		Name: "opt", CT: 1, OT: 0.9, MinInterval: 10, OutputOptional: true,
	}}
	res := Resources{Steps: 100, TimeThreshold: 10}
	rec := mustSolve(t, specs, res)
	s := rec.Schedule("opt")
	if s.Count != 10 {
		t.Fatalf("count = %d, want 10 (no output cost)", s.Count)
	}
	if s.Outputs != 0 || len(s.OutputSteps) != 0 {
		t.Fatalf("optional-output schedule wrote %d times", s.Outputs)
	}
	// Required output forces at least one write, costing one analysis.
	specs[0].OutputOptional = false
	rec = mustSolve(t, specs, res)
	s = rec.Schedule("opt")
	if s.Outputs < 1 {
		t.Fatal("required output missing")
	}
	if s.Count > 9 {
		t.Fatalf("count = %d; the 0.9s output must displace an analysis", s.Count)
	}
}

func TestFullModelRequiresOutputByDefault(t *testing.T) {
	specs := []AnalysisSpec{{Name: "q", CT: 1, OT: 0.5, MinInterval: 2}}
	res := Resources{Steps: 8, TimeThreshold: 4}
	rec, err := SolveFull(specs, res, SolveOptions{MaxNodes: 20000})
	if err != nil {
		t.Fatal(err)
	}
	s := rec.Schedule("q")
	if s.Enabled && s.Outputs == 0 {
		t.Fatal("full model scheduled an enabled analysis with no output")
	}
}

func TestRecommendationJSONRoundTrip(t *testing.T) {
	// cmd/insitu-sched -json marshals the recommendation; the structure must
	// survive a round trip.
	specs := fourAnalyses()
	res := Resources{Steps: 1000, TimeThreshold: 64.69, MemThreshold: 12 << 30}
	rec := mustSolve(t, specs, res)
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back Recommendation
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Objective != rec.Objective || len(back.Schedules) != len(rec.Schedules) {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Schedule("A1").Count != rec.Schedule("A1").Count {
		t.Fatal("schedule counts lost")
	}
}

// Property: every solver path returns a recommendation that validates
// against the raw constraint recurrences.
func TestAllSolversAlwaysFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		specs := fourAnalyses()
		for i := range specs {
			specs[i].Weight = 1 + float64(rng.Intn(3))
		}
		res := Resources{
			Steps:         1000,
			TimeThreshold: 5 + rng.Float64()*150,
			MemThreshold:  int64(1<<28 + rng.Intn(1<<33)),
		}
		rec, err := Solve(specs, res, SolveOptions{})
		if err != nil || rec.Validate(specs, res) != nil {
			return false
		}
		lex, err := SolveLexicographic(specs, res, SolveOptions{})
		if err != nil || lex.Validate(specs, res) != nil {
			return false
		}
		gr, err := GreedySolve(specs, res)
		if err != nil || gr.Validate(specs, res) != nil {
			return false
		}
		// The MILP dominates greedy; lexicographic may trade objective for
		// priority but must never beat the unconstrained optimum.
		return gr.Objective <= rec.Objective+1e-9 && lex.Objective <= rec.Objective+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestGanttString(t *testing.T) {
	specs := fourAnalyses()
	res := Resources{Steps: 1000, TimeThreshold: 129.35, MemThreshold: 12 << 30}
	rec := mustSolve(t, specs, res)
	g := rec.GanttString(res, 50)
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != rec.EnabledCount() {
		t.Fatalf("rows = %d, want %d", len(lines), rec.EnabledCount())
	}
	for _, l := range lines {
		if !strings.Contains(l, "O") && !strings.Contains(l, "A") {
			t.Fatalf("row without any analysis mark: %q", l)
		}
		if !strings.HasSuffix(l, "|") {
			t.Fatalf("row not terminated: %q", l)
		}
	}
	// Full-width rendering marks exactly the analysis steps.
	gFull := rec.GanttString(res, 0)
	row := strings.SplitN(strings.Split(gFull, "\n")[0], "|", 2)[1]
	marks := strings.Count(row, "A") + strings.Count(row, "O")
	if marks != rec.Schedules[0].Count {
		t.Fatalf("marks = %d, want %d", marks, rec.Schedules[0].Count)
	}
}

// TestSolveRejectsDuplicateNames: two analyses with one name are refused up
// front, by the check schedd runs before admission too. Solve used to accept
// them and then validate every schedule against whichever spec its name
// lookup kept last, so this feasible problem failed with "compact solution
// failed validation: core: "a" violates min interval 50 between steps 0 and
// 1".
func TestSolveRejectsDuplicateNames(t *testing.T) {
	specs := []AnalysisSpec{
		{Name: "a", CT: 1, OM: 1, MinInterval: 1},
		{Name: "a", CT: 100, OM: 1, MinInterval: 50},
	}
	res := Resources{Steps: 100, TimeThreshold: 60, MemThreshold: 1 << 30, Bandwidth: 1 << 30}
	const want = `core: two analyses named "a"`
	if err := ValidateSpecs(specs); err == nil || err.Error() != want {
		t.Fatalf("ValidateSpecs: %v, want %s", err, want)
	}
	if _, err := Solve(specs, res, SolveOptions{}); err == nil || err.Error() != want {
		t.Fatalf("Solve: %v, want %s", err, want)
	}
	specs[1].Name = "b"
	rec, err := Solve(specs, res, SolveOptions{})
	if err != nil {
		t.Fatalf("with distinct names: %v", err)
	}
	if err := rec.Validate(specs, res); err != nil {
		t.Fatal(err)
	}
}
