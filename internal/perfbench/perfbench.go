// Package perfbench is the repo's catalog of deterministic workloads: fixed,
// seeded instances over the solver stack (the paper's Table 5-8 MILPs, the
// sparse synthetic campaigns), the coupled execution pipeline and the schedd
// cache, each run once and reduced to named counters — branch-and-bound
// nodes, simplex pivots, objectives, event counts. The counters are a
// function of the code alone, not of the host, so the package's baseline test
// holds them to the committed BENCH_counters.json at the repository root with
// exact equality: any drift is a behaviour change in the search, the model
// or the pipeline. Wall time, allocations and heap are not measured here;
// benchmark/ is the instrument for those.
package perfbench

// Counters is what one workload run reports: deterministic outputs by name.
type Counters map[string]float64

// Workload is one catalog entry: a named, seeded, self-contained unit of
// work whose every run returns the same Counters.
type Workload struct {
	Name string
	Run  func() (Counters, error)
}

// BenchWorkers is the branch-and-bound pool width the scheduling workloads
// run with. It is fixed (not runtime.NumCPU()) so the recorded counters are
// byte-stable across hosts — the search is deterministic per width, not
// across widths.
const BenchWorkers = 8

// Workloads returns the whole catalog.
func Workloads() []Workload {
	ws := solverWorkloads()
	ws = append(ws, pipelineWorkloads()...)
	return append(ws, serviceSequentialCache())
}
