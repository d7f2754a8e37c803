package main

import "math"

// metricDef names one metric exactly as BENCHMARK.json lists it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen; it is
// zero (unused) for per-layer metrics.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a caller of the system sees, per workload. Every timing is
// taken by the harness's own monotonic clock around the call. The bounds of
// the timings are the largest the benchmark contract allows: on the shared
// two-core host the benchmark was built on, run-to-run spread reached half of
// that in a bad hour (README.md, "Run-to-run spread"); the 10% a quiet
// machine would allow cannot be held there.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"op_ms_p50", "ms", lower, 0.25},
	{"op_ms_p90", "ms", lower, 0.25},
	{"cpu_ms_per_op", "ms", lower, 0.25},
	{"alloc_kb_per_op", "KiB", lower, 0.10},
}

// perLayer is what the traced run reports: each layer's public functions
// timed from outside on the workload's inputs (or, for a layer the workload
// does not cross, on the default probe inputs; see probe.go). Counts repeat
// exactly for a given seed.
var perLayer = []metricDef{
	{Name: "trace_overhead_share", Unit: "ratio", Better: lower},
	// The peak resident set of the process after set-up and the workload's own
	// traced and untraced passes, before any probe group runs. It is not an
	// end-to-end metric because it cannot hold a bound on the small workloads:
	// see README.md, "End-to-end metrics".
	{Name: "process.peak_rss_mb", Unit: "MiB", Better: lower},

	{Name: "scenario.parse_us", Unit: "us", Better: lower},
	{Name: "scenario.fingerprint_us", Unit: "us", Better: lower},
	{Name: "scenario.decode_us", Unit: "us", Better: lower},

	{Name: "schedd.hit_us_p50", Unit: "us", Better: lower},
	{Name: "schedd.miss_ms_p50", Unit: "ms", Better: lower},
	{Name: "schedd.miss_ms_p99", Unit: "ms", Better: lower},
	{Name: "schedd.process_hit_us", Unit: "us", Better: lower},
	{Name: "schedd.handler_overhead_us", Unit: "us", Better: lower},
	{Name: "schedd.encode_us", Unit: "us", Better: lower},
	{Name: "schedd.queue_wait_us_mean", Unit: "us", Better: lower},
	{Name: "schedd.cache_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "schedd.evictions", Unit: "count", Better: lower},
	{Name: "schedd.coalesced", Unit: "count", Better: higher},

	{Name: "core.solve_us", Unit: "us", Better: lower},
	{Name: "core.build_us", Unit: "us", Better: lower},
	{Name: "core.build_alloc_kb", Unit: "KiB", Better: lower},
	{Name: "core.columns", Unit: "count", Better: lower},
	{Name: "core.validate_us", Unit: "us", Better: lower},
	{Name: "core.residual_us", Unit: "us", Better: lower},
	{Name: "core.residual_share", Unit: "ratio", Better: lower},

	{Name: "milp.solve_us", Unit: "us", Better: lower},
	{Name: "milp.us_per_node", Unit: "us", Better: lower},
	{Name: "milp.nodes", Unit: "count", Better: lower},
	{Name: "milp.relaxations", Unit: "count", Better: lower},
	{Name: "milp.pivots", Unit: "count", Better: lower},
	{Name: "milp.warm_solves", Unit: "count", Better: higher},
	{Name: "milp.cold_solves", Unit: "count", Better: lower},
	{Name: "milp.fallback_colds", Unit: "count", Better: lower},
	{Name: "milp.warm_ratio", Unit: "ratio", Better: higher},

	{Name: "lp.root_us", Unit: "us", Better: lower},
	{Name: "lp.root_pivots", Unit: "count", Better: lower},
	{Name: "lp.us_per_pivot", Unit: "us", Better: lower},
	{Name: "lp.warm_resolve_us", Unit: "us", Better: lower},

	{Name: "replan.adaptive_us", Unit: "us", Better: lower},
	{Name: "replan.static_us", Unit: "us", Better: lower},
	{Name: "replan.replans", Unit: "count", Better: lower},
	{Name: "replan.decisions", Unit: "count", Better: lower},
	{Name: "runmon.observe_ns", Unit: "ns", Better: lower},
	{Name: "runmon.analyze_us", Unit: "us", Better: lower},

	{Name: "coupling.bare_step_ns", Unit: "ns", Better: lower},
	{Name: "coupling.instrumented_step_ns", Unit: "ns", Better: lower},
	{Name: "obs.eventlog_append_ns", Unit: "ns", Better: lower},
	{Name: "obs.eventlog_allocs_per_event", Unit: "allocs", Better: lower},
	{Name: "obs.tracer_span_ns", Unit: "ns", Better: lower},
	{Name: "obs.registry_observe_ns", Unit: "ns", Better: lower},
	{Name: "obs.flight_overhead_us", Unit: "us", Better: lower},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as the last line of its standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult packs values into a result with the units of defs. A value that
// is missing or not a finite number (nothing was measured) fails the run; it
// is reported as 0 because JSON has no other way to carry it.
func newResult(defs []metricDef, values map[string]float64, attempted, failed int, correct bool) result {
	res := result{Correct: correct && failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct, v = false, 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res
}
