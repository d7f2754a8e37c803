// Package perfbench is the repo's performance observatory: canonical,
// seeded benchmark workloads over the solver stack (the paper's Table 5-8
// MILP instances), the coupled execution pipeline, and the I/O models, run
// with warmup/repetition/outlier-trim and captured into a versioned JSON
// schema (the BENCH_*.json files at the repository root). The paper's
// central claim is that optimal scheduling is cheap enough to run inline
// with the simulation (0.17-1.36 s per CPLEX solve); these baselines pin
// this repository's equivalent trajectory so every later change is measured
// against a recorded floor instead of a feeling.
//
// Metric semantics: every metric is lower-is-better. Wall-clock metrics are
// noisy across hosts, so each metric carries its own relative threshold:
// Compare flags a regression only when current > baseline*(1+Threshold*slack).
// Deterministic metrics (branch-and-bound nodes, simplex pivots, modelled
// seconds) carry near-zero thresholds and catch any behavioural drift;
// wall-clock metrics carry generous ones and catch order-of-magnitude
// regressions. A zero threshold marks a metric as informational: recorded,
// reported, never gated.
package perfbench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// SchemaVersion identifies the BENCH_*.json layout; readers reject files
// from a different major schema rather than misreading them.
const SchemaVersion = 1

// Metric is one recorded measurement of a workload. Lower is better.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Threshold is the maximum tolerated relative increase over a baseline
	// before Compare flags a regression (scaled by the compare slack).
	// Zero marks the metric informational.
	Threshold float64 `json:"threshold,omitempty"`
}

// WorkloadResult is one workload's captured metrics.
type WorkloadResult struct {
	Name    string   `json:"name"`
	Reps    int      `json:"reps"` // measured repetitions after trimming
	Metrics []Metric `json:"metrics"`
}

// Metric returns the named metric, or nil.
func (w *WorkloadResult) Metric(name string) *Metric {
	for i := range w.Metrics {
		if w.Metrics[i].Name == name {
			return &w.Metrics[i]
		}
	}
	return nil
}

// Suite is one BENCH_*.json file.
type Suite struct {
	Schema    int              `json:"schema"`
	Suite     string           `json:"suite"`
	Workloads []WorkloadResult `json:"workloads"`
}

// Workload returns the named workload result, or nil.
func (s *Suite) Workload(name string) *WorkloadResult {
	for i := range s.Workloads {
		if s.Workloads[i].Name == name {
			return &s.Workloads[i]
		}
	}
	return nil
}

// WriteFile writes the suite as indented JSON (workloads sorted by name, so
// committed baselines diff cleanly).
func (s Suite) WriteFile(path string) error {
	s.Schema = SchemaVersion
	sort.Slice(s.Workloads, func(i, j int) bool { return s.Workloads[i].Name < s.Workloads[j].Name })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile parses a BENCH_*.json file and checks its schema version.
func ReadFile(path string) (Suite, error) {
	var s Suite
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("perfbench: %s: %w", path, err)
	}
	if s.Schema != SchemaVersion {
		return s, fmt.Errorf("perfbench: %s: schema v%d, this reader understands v%d", path, s.Schema, SchemaVersion)
	}
	return s, nil
}

// Sample is what one workload iteration reports back to the runner beyond
// the wall time the runner measures itself.
type Sample struct {
	// Nodes and Pivots accumulate branch-and-bound effort across the
	// iteration's solves; zero means the workload has no solver component.
	Nodes  int
	Pivots int
	// Model holds deterministic model outputs (seconds, bytes, counts) keyed
	// by metric name; they are gated near-exactly.
	Model map[string]float64
	// Info holds measured-but-noisy outputs (speedups, savings ratios)
	// keyed by metric name; they are recorded with a zero threshold, so
	// Compare reports them without ever gating on them.
	Info map[string]float64
}

// Workload is one canonical benchmark: a named, seeded, self-contained unit
// of work whose single iteration is Run.
type Workload struct {
	Name string
	// Run performs one iteration and reports its sample.
	Run func() (Sample, error)
	// CountersOnly marks a workload whose whole result is its Sample.Model:
	// it runs once, unwarmed and untimed, and records no wall or allocation
	// metric — for corpora that are there for their deterministic counters
	// and too long to repeat.
	CountersOnly bool
}

// Runner executes workloads with warmup, repetition, and outlier trimming.
// The zero value is not ready; use NewRunner.
type Runner struct {
	// Warmup iterations run before measurement (default 1).
	Warmup int
	// Reps is the number of measured iterations (default 7).
	Reps int
	// Trim drops the slowest and fastest Trim wall samples before
	// aggregating (default 1; forced to keep at least one sample).
	Trim int

	now func() time.Time
}

// NewRunner returns a runner with the default full-fidelity settings.
func NewRunner() *Runner { return &Runner{Warmup: 1, Reps: 7, Trim: 1, now: time.Now} }

// QuickRunner returns the reduced-repetition runner the CI smoke job uses:
// same per-iteration work (so per-op metrics stay comparable with full
// baselines), fewer repetitions.
func QuickRunner() *Runner { return &Runner{Warmup: 1, Reps: 3, Trim: 0, now: time.Now} }

// SetClock injects a deterministic clock for tests.
func (r *Runner) SetClock(now func() time.Time) { r.now = now }

// Wall-metric thresholds: generous, because wall time moves with the host.
// Deterministic counters get tight ones. See the package comment.
const (
	wallThreshold  = 1.5  // 2.5x baseline allowed at slack 1
	allocThreshold = 0.5  // 1.5x baseline allowed at slack 1
	exactThreshold = 0.01 // 1% drift allowed at slack 1
)

// Measure runs one workload and aggregates its samples into metrics.
func (r *Runner) Measure(w Workload) (WorkloadResult, error) {
	if w.CountersOnly {
		s, err := w.Run()
		if err != nil {
			return WorkloadResult{}, fmt.Errorf("perfbench: %s: %w", w.Name, err)
		}
		return WorkloadResult{Name: w.Name, Reps: 1, Metrics: modelMetrics(s.Model)}, nil
	}
	if r.now == nil {
		r.now = time.Now
	}
	reps := r.Reps
	if reps <= 0 {
		reps = 7
	}
	for i := 0; i < r.Warmup; i++ {
		if _, err := w.Run(); err != nil {
			return WorkloadResult{}, fmt.Errorf("perfbench: %s warmup: %w", w.Name, err)
		}
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	peakHeap := before.HeapAlloc

	walls := make([]float64, 0, reps)
	var last Sample
	for i := 0; i < reps; i++ {
		t0 := r.now()
		s, err := w.Run()
		wall := r.now().Sub(t0)
		if err != nil {
			return WorkloadResult{}, fmt.Errorf("perfbench: %s rep %d: %w", w.Name, i, err)
		}
		walls = append(walls, float64(wall.Nanoseconds()))
		last = s
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peakHeap {
			peakHeap = ms.HeapAlloc
		}
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	kept := trim(walls, r.Trim)
	res := WorkloadResult{Name: w.Name, Reps: len(kept)}
	res.Metrics = append(res.Metrics,
		Metric{Name: "wall_ns_min", Value: kept[0], Unit: "ns/op", Threshold: wallThreshold},
		Metric{Name: "wall_ns_median", Value: median(kept), Unit: "ns/op"},
		Metric{Name: "alloc_bytes_per_op", Value: float64(after.TotalAlloc-before.TotalAlloc) / float64(reps), Unit: "B/op", Threshold: allocThreshold},
		Metric{Name: "allocs_per_op", Value: float64(after.Mallocs-before.Mallocs) / float64(reps), Unit: "allocs/op", Threshold: allocThreshold},
		Metric{Name: "peak_heap_bytes", Value: float64(peakHeap), Unit: "B"},
	)
	if last.Nodes > 0 || last.Pivots > 0 {
		res.Metrics = append(res.Metrics,
			Metric{Name: "solver_nodes_per_op", Value: float64(last.Nodes), Unit: "nodes/op", Threshold: exactThreshold},
			Metric{Name: "solver_pivots_per_op", Value: float64(last.Pivots), Unit: "pivots/op", Threshold: exactThreshold},
		)
	}
	res.Metrics = append(res.Metrics, modelMetrics(last.Model)...)
	infoKeys := make([]string, 0, len(last.Info))
	for k := range last.Info {
		infoKeys = append(infoKeys, k)
	}
	sort.Strings(infoKeys)
	for _, k := range infoKeys {
		res.Metrics = append(res.Metrics, Metric{Name: k, Value: last.Info[k], Unit: "info"})
	}
	return res, nil
}

// modelMetrics turns a sample's model outputs into exact-gated metrics, in
// name order.
func modelMetrics(model map[string]float64) []Metric {
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ms := make([]Metric, 0, len(keys))
	for _, k := range keys {
		ms = append(ms, Metric{Name: k, Value: model[k], Unit: "model", Threshold: exactThreshold})
	}
	return ms
}

// RunSuite measures every workload into one suite.
func (r *Runner) RunSuite(name string, workloads []Workload, progress io.Writer) (Suite, error) {
	s := Suite{Schema: SchemaVersion, Suite: name}
	for _, w := range workloads {
		if progress != nil {
			fmt.Fprintf(progress, "  %s/%s...\n", name, w.Name)
		}
		res, err := r.Measure(w)
		if err != nil {
			return s, err
		}
		s.Workloads = append(s.Workloads, res)
	}
	sort.Slice(s.Workloads, func(i, j int) bool { return s.Workloads[i].Name < s.Workloads[j].Name })
	return s, nil
}

// trim sorts walls and drops n from each end, always keeping at least one.
func trim(walls []float64, n int) []float64 {
	sorted := append([]float64(nil), walls...)
	sort.Float64s(sorted)
	if n > 0 && len(sorted)-2*n >= 1 {
		sorted = sorted[n : len(sorted)-n]
	}
	return sorted
}

// median of a sorted slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
