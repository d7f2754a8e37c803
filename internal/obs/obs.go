// Package obs is the telemetry layer of the reproduction: a span/event
// tracer that records a coupled run as a timeline, and a metrics registry
// with counters, gauges, and fixed-bucket histograms. The paper's whole
// methodology rests on measured per-region time and memory profiles (IBM
// HPM/HPCT on Mira feeding the MILP of §3.2), and its validation on
// per-step execution timelines (§5); this package makes both observable in
// the reproduction instead of only reporting aggregate totals.
//
// The tracer exports Chrome trace_event JSON (loadable in chrome://tracing
// or https://ui.perfetto.dev). The registry
// exports Prometheus text format and a JSON snapshot. Both are dependency
// free, safe for concurrent use (goroutine ranks emit from multiple
// goroutines), and deterministic under an injected clock so
// exported artifacts can be byte-compared in tests.
//
// All handle types are nil-safe: calling methods on a nil *Tracer,
// *Counter, *Gauge, or *Histogram is a no-op, so instrumented code paths
// need no "is telemetry enabled" branches.
package obs
