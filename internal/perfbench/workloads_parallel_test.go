package perfbench

import (
	"math"
	"runtime"
	"testing"
	"time"

	"insitu/internal/core"
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
// checks the acceptance criterion directly: warm starts must spend fewer
// total simplex pivots than cold starts on the paper batch, and the
// recorded solver width must be the parallel one.
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
	if warm >= cold {
		t.Fatalf("warm starts did not reduce pivots: warm=%g cold=%g", warm, cold)
	}
	if s.Info["warm_pivot_savings"] <= 0 {
		t.Fatalf("savings ratio %g not positive", s.Info["warm_pivot_savings"])
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
	specs := largeSparseSpecs(220)
	res := core.Resources{Steps: 1000, TimeThreshold: 600, MemThreshold: 12 << 30}
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

// TestLargeSparsePricesAWorkingSet guards the pricing counter the solver
// baseline gates: on the 220-analysis model (~1 700 columns, ~2 150 with
// slacks and artificials) the primal simplex prices a selected working set
// per pivot, a few hundred columns with the refills averaged in. A
// priced_per_pivot near the column count means every pivot is a full pass
// again.
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
		if !ok || got <= 0 || got > 700 {
			t.Fatalf("priced_per_pivot = %g (recorded: %t), want a working set's worth, under 700", got, ok)
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
