package perfbench

import (
	"context"
	"fmt"
	"net/http"

	"insitu/internal/core"
	"insitu/internal/experiments"
	"insitu/internal/obs"
	"insitu/internal/scenario"
	"insitu/internal/schedd"
)

// serviceScenarios returns the four paper instances as scenario documents —
// the same water+ions/rhodopsin/FLASH problems the solver workloads solve,
// here posted through the schedd service pipeline.
func serviceScenarios() []scenario.Problem {
	mem := int64(12) << 30
	return []scenario.Problem{
		scenario.FromSpecs(experiments.WaterIonsSpecs(16384),
			core.Resources{Steps: 1000, TimeThreshold: 129.35, MemThreshold: mem}),
		scenario.FromSpecs(experiments.WaterIonsSpecs(16384),
			core.Resources{Steps: 1000, TimeThreshold: 64.69, MemThreshold: mem}),
		scenario.FromSpecs(experiments.RhodopsinSpecs(),
			core.Resources{Steps: 1000, TimeThreshold: 200, MemThreshold: mem}),
		scenario.FromSpecs(experiments.FlashSpecs(),
			core.Resources{Steps: 1000, TimeThreshold: 43.5, MemThreshold: mem}),
	}
}

// serviceRequests is the request count the service workload issues: each of
// the four scenarios four times, so exactly four requests miss and the rest
// are served from the cache.
const serviceRequests = 16

// snapshotValue sums a metric family's values across its label sets.
func snapshotValue(snap []obs.Metric, name string) float64 {
	var v float64
	for _, m := range snap {
		if m.Name == name {
			v += m.Value
		}
	}
	return v
}

// serviceSequentialCache drives serviceRequests requests, one after another,
// through a fresh schedd server and pins the cache behaviour — 4 misses, then
// 12 hits — and the solver effort behind the four unique solves. (Throughput
// and latency under concurrent clients are benchmark/'s service_mix.)
func serviceSequentialCache() Workload {
	return Workload{Name: "service_sequential_cache", Run: func() (Counters, error) {
		reg := obs.NewRegistry()
		s := schedd.New(schedd.Config{Registry: reg})
		problems := serviceScenarios()
		for i := 0; i < serviceRequests; i++ {
			req := schedd.SolveRequest{Scenario: problems[i%len(problems)]}
			resp, code := s.Process(context.Background(), fmt.Sprintf("bench-%02d", i), req)
			if code != http.StatusOK {
				return nil, fmt.Errorf("request %d: status %d (%+v)", i, code, resp.Error)
			}
		}
		snap := reg.Snapshot()
		if n := snapshotValue(snap, "schedd_errors_total"); n != 0 {
			return nil, fmt.Errorf("service errored %v times", n)
		}
		hits := snapshotValue(snap, "schedd_cache_hits_total")
		misses := snapshotValue(snap, "schedd_cache_misses_total")
		// Re-solve the unique instances directly to surface the solver effort
		// the service spent on its four cache misses.
		var nodes, pivots int
		for _, p := range problems {
			specs, res := p.Decode()
			rec, err := core.Solve(specs, res, core.SolveOptions{Workers: BenchWorkers})
			if err != nil {
				return nil, err
			}
			nodes += rec.Stats.Nodes
			pivots += rec.Stats.Pivots
		}
		return effort(Counters{
			"cache_hit_ratio": hits / (hits + misses),
			"cache_misses":    misses,
		}, nodes, pivots), nil
	}}
}
