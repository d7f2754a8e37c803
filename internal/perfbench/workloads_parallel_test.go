package perfbench

import (
	"math"
	"runtime"
	"testing"
	"time"

	"insitu/internal/core"
	"insitu/internal/solvercheck"
)

// TestInfoMetricsInformational checks the Sample.Info path: info metrics
// are recorded with a zero threshold, after the gated model metrics.
func TestInfoMetricsInformational(t *testing.T) {
	r := QuickRunner()
	r.SetClock(func() func() time.Time {
		tick := time.Unix(0, 0)
		return func() time.Time { tick = tick.Add(time.Millisecond); return tick }
	}())
	res, err := r.Measure(Workload{Name: "w", Run: func() (Sample, error) {
		return Sample{
			Model: map[string]float64{"objective": 42},
			Info:  map[string]float64{"speedup_w8": 1.7},
		}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metric("speedup_w8")
	if m == nil {
		t.Fatalf("info metric not recorded: %+v", res.Metrics)
	}
	if m.Threshold != 0 {
		t.Fatalf("info metric carries threshold %g, want 0 (informational)", m.Threshold)
	}
	if m.Unit != "info" || m.Value != 1.7 {
		t.Fatalf("info metric = %+v", m)
	}
	if obj := res.Metric("objective"); obj == nil || obj.Threshold == 0 {
		t.Fatalf("model metric lost its gate: %+v", obj)
	}
}

// TestWarmStartWorkloadSavesPivots runs the warm-start workload once and
// checks what a warm start still promises on the paper batch: a node re-solved
// from its parent's basis costs a handful of dual pivots (the all-slack cold
// start it was introduced against took 561 pivots over 44 nodes here), and the
// recorded solver width is the parallel one. It no longer promises fewer
// pivots than NoWarmStart: since cold solves start from the crash basis a cold
// node on these four-class models is a greedy pass and a pivot or two, so
// the two counts are recorded and gated in BENCH_solver.json, not ordered.
func TestWarmStartWorkloadSavesPivots(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the paper batch twice")
	}
	ws, err := Workloads(SuiteSolver)
	if err != nil {
		t.Fatal(err)
	}
	var run func() (Sample, error)
	for _, w := range ws {
		if w.Name == "sched_batch_warmstart" {
			run = w.Run
		}
	}
	if run == nil {
		t.Fatal("sched_batch_warmstart missing from the solver suite")
	}
	s, err := run()
	if err != nil {
		t.Fatal(err)
	}
	warm, cold := s.Model["pivots_warm"], s.Model["pivots_cold"]
	if warm <= 0 || cold <= 0 {
		t.Fatalf("degenerate pivot counts: warm=%g cold=%g", warm, cold)
	}
	if perNode := warm / float64(s.Nodes); perNode > 5 {
		t.Fatalf("warm starts cost %.1f pivots a node (%g over %d nodes), want a handful", perNode, warm, s.Nodes)
	}
}

// TestSchedWorkloadsRecordWorkers asserts every scheduling workload records
// the parallel pool width — the metadata the CI bench gate checks so the
// suite can't silently run serial.
func TestSchedWorkloadsRecordWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the scheduling workloads")
	}
	ws, err := Workloads(SuiteSolver)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if w.Name != "sched_waterions_a1a4_t10" && w.Name != "sched_flash_f1f3_lexicographic" && w.Name != "placement_waterions" {
			continue
		}
		s, err := w.Run()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if got := s.Model["solver_workers"]; got != BenchWorkers {
			t.Fatalf("%s recorded solver_workers=%g, want %d", w.Name, got, BenchWorkers)
		}
	}
}

// TestLargeSparseBuildStaysSparse guards the problem representation: the
// 220-analysis compact model is ~1 700 columns × 222 rows holding ~5 000
// nonzeros, and building it must cost memory in proportion to the nonzeros
// (about 1.2 MiB, most of it mode enumeration and names). One dense
// coefficient row per constraint alone is 3 MiB.
func TestLargeSparseBuildStaysSparse(t *testing.T) {
	specs, res := solvercheck.SparseCampaign(271828, 220)
	opts := core.SolveOptions{MaxCount: 4}
	const limit = 1536 << 10
	var ms runtime.MemStats
	best := uint64(math.MaxUint64)
	// The lowest of three: TotalAlloc is process-wide, and a background
	// goroutine's allocations can only add to a run.
	for run := 0; run < 3; run++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		names, err := core.CompactNames(specs, res, opts)
		runtime.ReadMemStats(&ms)
		if err != nil {
			t.Fatal(err)
		}
		if len(names) < 1000 {
			t.Fatalf("model has %d columns, the guard wants the full-size one", len(names))
		}
		if d := ms.TotalAlloc - before; d < best {
			best = d
		}
	}
	if best >= limit {
		t.Fatalf("building the compact model allocated %d KiB, want under %d KiB", best>>10, limit>>10)
	}
	t.Logf("build allocates %d KiB", best>>10)
}

// TestLargeSparsePricesAWorkingSet guards what pricing costs on the
// 220-analysis model (~1 700 columns, ~2 150 with slacks and artificials).
// The root starts from the crash basis and every node is a dual re-solve, so
// nearly all primal pricing is the one full pass that proves each relaxation
// optimal: columns priced per node stay near one pass. Full pricing on every
// primal pivot again, or a lost crash start (some 570 root pivots), shows as
// several passes a node. (lp's own TestWideModelRefillsItsWorkingSet watches
// the working set from the all-slack start, where it still does the work.)
func TestLargeSparsePricesAWorkingSet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the large sparse workload")
	}
	ws, err := Workloads(SuiteSolver)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if w.Name != "sched_large_sparse" {
			continue
		}
		s, err := w.Run()
		if err != nil {
			t.Fatal(err)
		}
		got, ok := s.Model["priced_per_pivot"]
		if perNode := got * float64(s.Pivots) / float64(s.Nodes); !ok || got <= 0 || perNode > 3000 {
			t.Fatalf("priced_per_pivot = %g (recorded: %t): %.0f columns priced a node, want under 3000", got, ok, perNode)
		}
		if s.Info["full_pricing_passes"] <= 0 || s.Info["reduced_cost_fixed"] <= 0 {
			t.Fatalf("full passes %g, columns fixed %g: both should be at work on this model",
				s.Info["full_pricing_passes"], s.Info["reduced_cost_fixed"])
		}
		t.Logf("priced_per_pivot %.1f, %g full passes over %d pivots, %g columns fixed",
			got, s.Info["full_pricing_passes"], s.Pivots, s.Info["reduced_cost_fixed"])
		return
	}
	t.Fatal("sched_large_sparse is not in the solver suite")
}

// TestOffPoolCorpusAgreesAcrossWidths runs the off-pool workload and holds
// every instance's objective to a reference from the other search driver
// (Workers: 2), the check benchmark/ applies to its own pools; and pins what
// the workload is for — root relaxations that start from the crash basis, a
// handful of iterations each where the all-slack start took some 260.
func TestOffPoolCorpusAgreesAcrossWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the off-pool corpus at two widths")
	}
	s, err := offPoolWorkload("offpool", 100).Run()
	if err != nil {
		t.Fatal(err)
	}
	reference := 0.0
	for sub := int64(offPoolFirst); sub < offPoolFirst+offPoolCount; sub++ {
		specs, res := solvercheck.SparseCampaign(sub, 100)
		rec, err := core.Solve(specs, res, core.SolveOptions{MaxCount: 4, Workers: 2})
		if err != nil {
			t.Fatalf("sub-seed %d at Workers 2: %v", sub, err)
		}
		one, err := core.Solve(specs, res, core.SolveOptions{MaxCount: 4, MaxNodes: offPoolMaxNodes})
		if err != nil || math.Abs(one.Objective-rec.Objective) > 1e-6 {
			t.Fatalf("sub-seed %d: objective %v at the default width (%v), %v at Workers 2", sub, one.Objective, err, rec.Objective)
		}
		reference += rec.Objective
	}
	if got := s.Model["objective_total"]; math.Abs(got-reference) > 1e-6 {
		t.Fatalf("objective_total %v, cross-width reference %v", got, reference)
	}
	if root := s.Model["root_pivots_total"]; root <= 0 || root > 10*offPoolCount {
		t.Fatalf("root_pivots_total = %v over %d instances, want a crash start's handful each", root, offPoolCount)
	}
	if s.Model["nodes_max"] <= 0 || s.Model["nodes_total"] < s.Model["nodes_max"] || s.Model["pivots_total"] < s.Model["root_pivots_total"] {
		t.Fatalf("inconsistent counters: %v", s.Model)
	}
}
