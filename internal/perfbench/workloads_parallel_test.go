package perfbench

import (
	"math"
	"runtime"
	"testing"

	"insitu/internal/core"
	"insitu/internal/solvercheck"
)

// TestWarmStartWorkloadSavesPivots runs the warm-start workload once and
// checks what a warm start still promises on the paper batch: a node re-solved
// from its parent's basis costs a handful of dual pivots (the all-slack cold
// start it was introduced against took 561 pivots over 44 nodes here), and the
// recorded solver width is the parallel one. It no longer promises fewer
// pivots than NoWarmStart: since cold solves start from the crash basis a cold
// node on these four-class models is a greedy pass and a pivot or two, so
// the two counts are recorded and held in BENCH_counters.json, not ordered.
func TestWarmStartWorkloadSavesPivots(t *testing.T) {
	c, ok := catalog(t)["sched_batch_warmstart"]
	if !ok {
		t.Fatal("sched_batch_warmstart missing from the catalog")
	}
	warm, cold, nodes := c["pivots_warm"], c["pivots_cold"], c["solver_nodes_per_op"]
	if warm <= 0 || cold <= 0 {
		t.Fatalf("degenerate pivot counts: warm=%g cold=%g", warm, cold)
	}
	if perNode := warm / nodes; perNode > 5 {
		t.Fatalf("warm starts cost %.1f pivots a node (%g over %g nodes), want a handful", perNode, warm, nodes)
	}
}

// TestSchedWorkloadsRecordWorkers asserts the three solve entry points
// (weighted, lexicographic, placement) each record the parallel pool width
// they were asked for — the metadata the baseline test audits so the catalog
// can't silently run serial.
func TestSchedWorkloadsRecordWorkers(t *testing.T) {
	got := catalog(t)
	for _, name := range []string{"sched_waterions_a1a4_t10", "sched_flash_f1f3_lexicographic", "placement_waterions"} {
		if w := got[name]["solver_workers"]; w != BenchWorkers {
			t.Fatalf("%s recorded solver_workers=%g, want %d", name, w, BenchWorkers)
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
		t.Skip("solves the large sparse instance")
	}
	// sched_large_sparse's instance and options, solved here for the
	// statistics the workload does not report.
	specs, res := solvercheck.SparseCampaign(271828, 220)
	rec, err := core.Solve(specs, res, core.SolveOptions{Workers: BenchWorkers, MaxCount: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := rec.Stats
	if perNode := float64(st.PricedColumns) / float64(st.Nodes); st.PricedColumns <= 0 || perNode > 3000 {
		t.Fatalf("%d columns priced over %d nodes: %.0f a node, want under 3000", st.PricedColumns, st.Nodes, perNode)
	}
	if st.FullPricingPasses <= 0 || st.ReducedCostFixed <= 0 {
		t.Fatalf("full passes %d, columns fixed %d: both should be at work on this model",
			st.FullPricingPasses, st.ReducedCostFixed)
	}
	t.Logf("priced_per_pivot %.1f, %d full passes over %d pivots, %d columns fixed",
		float64(st.PricedColumns)/float64(st.Pivots), st.FullPricingPasses, st.Pivots, st.ReducedCostFixed)
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
	s, err := offPoolWorkload().Run()
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
	if got := s["objective_total"]; math.Abs(got-reference) > 1e-6 {
		t.Fatalf("objective_total %v, cross-width reference %v", got, reference)
	}
	if root := s["root_pivots_total"]; root <= 0 || root > 10*offPoolCount {
		t.Fatalf("root_pivots_total = %v over %d instances, want a crash start's handful each", root, offPoolCount)
	}
	if s["nodes_max"] <= 0 || s["nodes_total"] < s["nodes_max"] || s["pivots_total"] < s["root_pivots_total"] {
		t.Fatalf("inconsistent counters: %v", s)
	}
}
