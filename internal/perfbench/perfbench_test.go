package perfbench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock advances a fixed amount per reading.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	tick time.Duration
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.tick)
	return c.t
}

func TestTrimAndMedian(t *testing.T) {
	cases := []struct {
		walls  []float64
		n      int
		kept   int
		median float64
	}{
		{[]float64{5, 1, 9, 3, 7}, 1, 3, 5},      // drops 1 and 9
		{[]float64{5, 1, 9, 3, 7}, 0, 5, 5},      // no trim
		{[]float64{2, 4}, 1, 2, 3},               // too few to trim: kept whole
		{[]float64{10}, 3, 1, 10},                // single sample survives any trim
		{[]float64{1, 2, 3, 4}, 1, 2, 2.5},       // even count median
		{[]float64{9, 8, 7, 6, 5, 4}, 2, 2, 6.5}, // heavy trim
	}
	for i, tc := range cases {
		kept := trim(tc.walls, tc.n)
		if len(kept) != tc.kept {
			t.Fatalf("case %d: kept %d, want %d (%v)", i, len(kept), tc.kept, kept)
		}
		if m := median(kept); m != tc.median {
			t.Fatalf("case %d: median %g, want %g (%v)", i, m, tc.median, kept)
		}
	}
	if median(nil) != 0 {
		t.Fatal("median(nil) != 0")
	}
}

func TestMeasureAggregates(t *testing.T) {
	r := &Runner{Warmup: 2, Reps: 5, Trim: 1}
	r.SetClock((&fakeClock{t: time.Unix(0, 0), tick: time.Millisecond}).now)
	runs := 0
	res, err := r.Measure(Workload{Name: "w", Run: func() (Sample, error) {
		runs++
		return Sample{Nodes: 11, Pivots: 70, Model: map[string]float64{"objective": 42}}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 7 { // 2 warmup + 5 measured
		t.Fatalf("runs = %d", runs)
	}
	if res.Reps != 3 { // 5 - 2 trimmed
		t.Fatalf("reps = %d", res.Reps)
	}
	// Every iteration takes exactly one tick (Run itself does not read the
	// clock), so min == median == 1ms.
	if m := res.Metric("wall_ns_min"); m == nil || m.Value != 1e6 {
		t.Fatalf("wall_ns_min = %+v", m)
	}
	if m := res.Metric("wall_ns_median"); m == nil || m.Value != 1e6 {
		t.Fatalf("wall_ns_median = %+v", m)
	}
	if m := res.Metric("solver_nodes_per_op"); m == nil || m.Value != 11 || m.Threshold != exactThreshold {
		t.Fatalf("solver_nodes_per_op = %+v", m)
	}
	if m := res.Metric("solver_pivots_per_op"); m == nil || m.Value != 70 {
		t.Fatalf("solver_pivots_per_op = %+v", m)
	}
	if m := res.Metric("objective"); m == nil || m.Value != 42 || m.Unit != "model" {
		t.Fatalf("objective = %+v", m)
	}
	if m := res.Metric("alloc_bytes_per_op"); m == nil {
		t.Fatal("no alloc metric")
	}
	if res.Metric("nope") != nil {
		t.Fatal("Metric invented a result")
	}
}

func TestMeasurePropagatesErrors(t *testing.T) {
	r := NewRunner()
	boom := fmt.Errorf("boom")
	if _, err := r.Measure(Workload{Name: "w", Run: func() (Sample, error) { return Sample{}, boom }}); err == nil {
		t.Fatal("warmup error swallowed")
	}
	n := 0
	r2 := &Runner{Warmup: 0, Reps: 3, now: time.Now}
	if _, err := r2.Measure(Workload{Name: "w", Run: func() (Sample, error) {
		n++
		if n == 2 {
			return Sample{}, boom
		}
		return Sample{}, nil
	}}); err == nil {
		t.Fatal("rep error swallowed")
	}
}

func TestSuiteFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := Suite{Suite: "solver", Workloads: []WorkloadResult{
		{Name: "b", Reps: 3, Metrics: []Metric{{Name: "wall_ns_min", Value: 1000, Unit: "ns/op", Threshold: 1.5}}},
		{Name: "a", Reps: 3, Metrics: []Metric{{Name: "wall_ns_min", Value: 2000, Unit: "ns/op", Threshold: 1.5}}},
	}}
	path := filepath.Join(dir, "BENCH_solver.json")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != SchemaVersion || got.Suite != "solver" {
		t.Fatalf("header = %+v", got)
	}
	// Sorted on write.
	if got.Workloads[0].Name != "a" || got.Workloads[1].Name != "b" {
		t.Fatalf("workloads unsorted: %+v", got.Workloads)
	}
	if got.Workload("a") == nil || got.Workload("zzz") != nil {
		t.Fatal("Workload lookup broken")
	}

	// Schema version gate.
	bad := strings.Replace(readAll(t, path), `"schema": 1`, `"schema": 99`, 1)
	badPath := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badPath, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(badPath); err == nil {
		t.Fatal("future schema accepted")
	}
	if _, err := ReadFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("absent file accepted")
	}
	if err := os.WriteFile(badPath, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(badPath); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func readAll(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestWorkloadCatalog runs every canonical suite once at quick settings and
// checks the recorded shape: the deterministic metrics must carry tight
// thresholds and the solver workloads must surface branch-and-bound effort.
func TestWorkloadCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every canonical workload")
	}
	r := QuickRunner()
	for _, suite := range SuiteNames {
		ws, err := Workloads(suite)
		if err != nil {
			t.Fatal(err)
		}
		if len(ws) == 0 {
			t.Fatalf("suite %s empty", suite)
		}
		s, err := r.RunSuite(suite, ws, nil)
		if err != nil {
			t.Fatalf("suite %s: %v", suite, err)
		}
		if len(s.Workloads) != len(ws) {
			t.Fatalf("suite %s: %d results for %d workloads", suite, len(s.Workloads), len(ws))
		}
		for _, w := range s.Workloads {
			if strings.HasPrefix(w.Name, "offpool_") {
				// Counters only: every metric an exact-gated model output.
				for _, m := range w.Metrics {
					if m.Unit != "model" || m.Threshold != exactThreshold {
						t.Fatalf("%s/%s records %+v, want deterministic counters alone", suite, w.Name, m)
					}
				}
				continue
			}
			if w.Metric("wall_ns_min") == nil || w.Metric("alloc_bytes_per_op") == nil {
				t.Fatalf("%s/%s missing base metrics: %+v", suite, w.Name, w.Metrics)
			}
			if strings.HasPrefix(w.Name, "sched_") || strings.HasPrefix(w.Name, "placement_") {
				if m := w.Metric("solver_nodes_per_op"); m == nil || m.Value <= 0 {
					t.Fatalf("%s/%s has no solver stats", suite, w.Name)
				}
				if m := w.Metric("objective"); m == nil || m.Value <= 0 {
					t.Fatalf("%s/%s has no objective", suite, w.Name)
				}
			}
		}
	}
	if _, err := Workloads("nope"); err == nil {
		t.Fatal("unknown suite accepted")
	}
}

// TestWorkloadDeterminism re-runs the solver suite and checks that every
// gated deterministic metric is identical across runs — the property the
// committed baselines and the CI gate rest on.
func TestWorkloadDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the solver suite twice")
	}
	run := func() Suite {
		ws, err := Workloads(SuiteSolver)
		if err != nil {
			t.Fatal(err)
		}
		s, err := QuickRunner().RunSuite(SuiteSolver, ws, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := run(), run()
	for _, wa := range a.Workloads {
		wb := b.Workload(wa.Name)
		for _, name := range []string{"solver_nodes_per_op", "solver_pivots_per_op", "objective"} {
			ma, mb := wa.Metric(name), wb.Metric(name)
			if (ma == nil) != (mb == nil) {
				t.Fatalf("%s: %s present on one side only", wa.Name, name)
			}
			if ma != nil && ma.Value != mb.Value {
				t.Fatalf("%s: %s = %g then %g — not deterministic", wa.Name, name, ma.Value, mb.Value)
			}
		}
	}

	var buf bytes.Buffer
	if _, err := QuickRunner().RunSuite(SuiteSolver, []Workload{{Name: "x", Run: func() (Sample, error) {
		return Sample{}, nil
	}}}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "solver/x") {
		t.Fatalf("progress output = %q", buf.String())
	}
}
