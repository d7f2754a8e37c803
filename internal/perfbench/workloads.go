package perfbench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"insitu/internal/analysis"
	"insitu/internal/core"
	"insitu/internal/coupling"
	"insitu/internal/experiments"
	"insitu/internal/iosim"
	"insitu/internal/lp"
	"insitu/internal/obs"
	"insitu/internal/replan"
	"insitu/internal/solvercheck"
)

// Suite names, which double as the BENCH_<name>.json file stems.
const (
	SuiteSolver   = "solver"
	SuitePipeline = "pipeline"
	SuiteIOSim    = "iosim"
	SuiteService  = "service"
)

// SuiteNames lists the canonical suites in run order.
var SuiteNames = []string{SuiteSolver, SuitePipeline, SuiteIOSim, SuiteService}

// BenchWorkers is the branch-and-bound pool width the scheduling workloads
// run with. It is fixed (not runtime.NumCPU()) so the recorded
// nodes/pivots metrics are byte-stable across hosts — the search
// is deterministic per width, not across widths.
const BenchWorkers = 8

// BenchFileName returns the repo-root baseline file for a suite.
func BenchFileName(suite string) string { return "BENCH_" + suite + ".json" }

// Workloads returns the canonical workload set for a suite. Every workload
// is deterministic per iteration (fixed seeds, fixed instances), so its
// counter metrics are byte-stable across runs and only wall time moves.
func Workloads(suite string) ([]Workload, error) {
	switch suite {
	case SuiteSolver:
		return solverWorkloads(), nil
	case SuitePipeline:
		return pipelineWorkloads(), nil
	case SuiteIOSim:
		return iosimWorkloads(), nil
	case SuiteService:
		return serviceWorkloads(), nil
	}
	return nil, fmt.Errorf("perfbench: unknown suite %q (have %v)", suite, SuiteNames)
}

// schedSolve builds a scheduling-solve workload over a fixed instance and
// reports branch-and-bound effort plus the optimal objective as a model
// metric (any objective drift is a solver behaviour change). Solves run at
// BenchWorkers width and record it as solver_workers, so the bench gate
// can prove the suite did not silently fall back to a wave of one.
// Warm-start health is recorded alongside: warm_solves and fallback_colds
// are deterministic per width and exact-gated (a rising fallback count means
// the dual-simplex warm re-solves stopped surviving the branching pattern),
// and `benchobs check` additionally gates their ratio across the suite.
// priced_per_pivot — columns the primal simplex priced per simplex iteration —
// is exact-gated too: on sched_large_sparse it is a few hundred of ~2 150
// while working-set pricing does its job, so a slide back to one full pass
// per pivot fails the compare instead of waiting for a wall-clock run to show
// it. The revised-simplex internals (primal/dual pivot split,
// refactorizations, eta peak, full pricing passes, columns fixed by reduced
// cost) ride along as informational metrics.
func schedSolve(name string, specs []core.AnalysisSpec, res core.Resources) Workload {
	return schedSolveOpts(name, specs, res, core.SolveOptions{Workers: BenchWorkers})
}

func schedSolveOpts(name string, specs []core.AnalysisSpec, res core.Resources, opts core.SolveOptions) Workload {
	return Workload{Name: name, Run: func() (Sample, error) {
		rec, err := core.Solve(specs, res, opts)
		if err != nil {
			return Sample{}, err
		}
		model := map[string]float64{
			"objective":      rec.Objective,
			"solver_workers": float64(rec.Stats.Workers),
			"warm_solves":    float64(rec.Stats.WarmSolves),
			"fallback_colds": float64(rec.Stats.FallbackColds),
		}
		if rec.Stats.Pivots > 0 {
			model["priced_per_pivot"] = float64(rec.Stats.PricedColumns) / float64(rec.Stats.Pivots)
		}
		return Sample{
			Nodes:  rec.Stats.Nodes,
			Pivots: rec.Stats.Pivots,
			Model:  model,
			Info: map[string]float64{
				"primal_pivots":       float64(rec.Stats.PrimalPivots),
				"dual_pivots":         float64(rec.Stats.DualPivots),
				"refactorizations":    float64(rec.Stats.Refactorizations),
				"eta_peak":            float64(rec.Stats.EtaPeak),
				"full_pricing_passes": float64(rec.Stats.FullPricingPasses),
				"reduced_cost_fixed":  float64(rec.Stats.ReducedCostFixed),
			},
		}, nil
	}}
}

// offPool is the corpus behind offpool_sparse_n100: generator sub-seeds no
// benchmark pool was drawn from. The pools in benchmark/sparse.go were picked
// for holding still under the pivot path of the day, so a search change
// regresses them toward the mean whatever it does; these 24 instances are what
// a search change is judged on.
const (
	offPoolFirst = 5000
	offPoolCount = 24
	// offPoolMaxNodes bounds one instance (the worst needs about 12 400
	// nodes today), so a search regression fails the counter gate instead of
	// hanging CI.
	offPoolMaxNodes = 50000
)

// offPoolWorkload solves the off-pool corpus at n analyses and the default
// search width and reports deterministic effort counters only: nodes and
// simplex iterations over the corpus, the worst instance's nodes, the
// iterations of the root relaxations alone (lp.Solve on the compact model, as
// benchmark/'s lp.root_pivots probe takes them) and the summed objective.
func offPoolWorkload(name string, n int) Workload {
	return Workload{Name: name, CountersOnly: true, Run: func() (Sample, error) {
		var nodes, nodesMax, pivots, rootPivots int
		objective := 0.0
		for sub := int64(offPoolFirst); sub < offPoolFirst+offPoolCount; sub++ {
			specs, res := solvercheck.SparseCampaign(sub, n)
			opts := core.SolveOptions{MaxCount: 4, MaxNodes: offPoolMaxNodes}
			rec, err := core.Solve(specs, res, opts)
			if err != nil {
				return Sample{}, fmt.Errorf("sub-seed %d: %w", sub, err)
			}
			if rec.Stats.Nodes >= offPoolMaxNodes {
				return Sample{}, fmt.Errorf("sub-seed %d: stopped at the %d-node cap", sub, offPoolMaxNodes)
			}
			nodes += rec.Stats.Nodes
			nodesMax = max(nodesMax, rec.Stats.Nodes)
			pivots += rec.Stats.Pivots
			objective += rec.Objective
			mp, err := solvercheck.CompactModel(specs, res, opts)
			if err != nil {
				return Sample{}, err
			}
			root, err := lp.Solve(mp.LP)
			if err != nil || root.Status != lp.Optimal {
				return Sample{}, fmt.Errorf("sub-seed %d: root relaxation: %v, %v", sub, root, err)
			}
			rootPivots += root.Iters
		}
		return Sample{Model: map[string]float64{
			"nodes_total":       float64(nodes),
			"nodes_max":         float64(nodesMax),
			"pivots_total":      float64(pivots),
			"root_pivots_total": float64(rootPivots),
			"objective_total":   objective,
		}}, nil
	}}
}

// solverWorkloads covers the paper's scheduling instances: LAMMPS
// water+ions A1-A4 (Table 5), rhodopsin R1-R3 (Table 6), FLASH Sedov F1-F3
// (Table 8), the placement variant, the lexicographic variant, and a seeded
// solvercheck differential batch as the verification-throughput proxy.
func solverWorkloads() []Workload {
	mem := int64(12) << 30
	largeSparse, largeSparseRes := solvercheck.SparseCampaign(271828, 220)
	ws := []Workload{
		schedSolve("sched_waterions_a1a4_t10",
			experiments.WaterIonsSpecs(16384),
			core.Resources{Steps: 1000, TimeThreshold: 129.35, MemThreshold: mem}),
		schedSolve("sched_waterions_a1a4_t5",
			experiments.WaterIonsSpecs(16384),
			core.Resources{Steps: 1000, TimeThreshold: 64.69, MemThreshold: mem}),
		schedSolve("sched_rhodopsin_r1r3_t200",
			experiments.RhodopsinSpecs(),
			core.Resources{Steps: 1000, TimeThreshold: 200, MemThreshold: mem}),
		schedSolve("sched_rhodopsin_r1r3_t20",
			experiments.RhodopsinSpecs(),
			core.Resources{Steps: 1000, TimeThreshold: 20, MemThreshold: mem}),
		schedSolve("sched_flash_f1f3_equal",
			experiments.FlashSpecs(),
			core.Resources{Steps: 1000, TimeThreshold: 43.5, MemThreshold: mem}),
		// sched_large_sparse is the revised-simplex showcase: a synthetic
		// 220-analysis campaign whose compact model (mode cap 4) is a few
		// thousand binaries over a few hundred sparse rows — far beyond the
		// paper instances, and the shape where the dense tableau paid
		// O(rows x columns) per pivot.
		schedSolveOpts("sched_large_sparse", largeSparse, largeSparseRes,
			core.SolveOptions{Workers: BenchWorkers, MaxCount: 4}),
		offPoolWorkload("offpool_sparse_n100", 100),
	}

	ws = append(ws, Workload{Name: "sched_flash_f1f3_lexicographic", Run: func() (Sample, error) {
		specs := experiments.FlashSpecs()
		specs[0].Weight, specs[1].Weight, specs[2].Weight = 2, 1, 2
		rec, err := core.SolveLexicographic(specs, core.Resources{Steps: 1000, TimeThreshold: 43.5, MemThreshold: mem}, core.SolveOptions{Workers: BenchWorkers})
		if err != nil {
			return Sample{}, err
		}
		return Sample{
			Nodes:  rec.Stats.Nodes,
			Pivots: rec.Stats.Pivots,
			Model: map[string]float64{
				"objective":      rec.Objective,
				"solver_workers": float64(rec.Stats.Workers),
			},
		}, nil
	}})

	ws = append(ws, Workload{Name: "placement_waterions", Run: func() (Sample, error) {
		base := experiments.WaterIonsSpecs(16384)
		specs := make([]core.PlacementSpec, len(base))
		for i, a := range base {
			specs[i] = core.PlacementSpec{AnalysisSpec: a, TransferBytes: 1 << 30}
		}
		res := core.PlacementResources{
			Resources:      core.Resources{Steps: 1000, TimeThreshold: 64.69, MemThreshold: mem},
			NetBandwidth:   2e9,
			StageMemTotal:  64 << 30,
			StageTimeTotal: 2000,
		}
		rec, err := core.SolvePlacement(specs, res, core.SolveOptions{Workers: BenchWorkers})
		if err != nil {
			return Sample{}, err
		}
		return Sample{
			Nodes:  rec.Stats.Nodes,
			Pivots: rec.Stats.Pivots,
			Model: map[string]float64{
				"objective":      rec.Objective,
				"solver_workers": float64(rec.Stats.Workers),
			},
		}, nil
	}})

	// sched_batch_scaling sweeps the paper batch at 1, 2, and 8 workers:
	// per-width pivot counts are deterministic (exact-gated), the wall-time
	// speedups are informational.
	ws = append(ws, Workload{Name: "sched_batch_scaling", Run: func() (Sample, error) {
		sample := Sample{Model: map[string]float64{}, Info: map[string]float64{}}
		var serialWall time.Duration
		for _, w := range []int{1, 2, 8} {
			nodes, pivots, objective, wall, err := solvePaperBatch(core.SolveOptions{Workers: w})
			if err != nil {
				return Sample{}, err
			}
			sample.Model[fmt.Sprintf("pivots_w%d", w)] = float64(pivots)
			if w == 1 {
				serialWall = wall
				sample.Nodes, sample.Pivots = nodes, pivots
				sample.Model["objective"] = objective
			} else if wall > 0 {
				sample.Info[fmt.Sprintf("speedup_w%d", w)] = serialWall.Seconds() / wall.Seconds()
			}
		}
		return sample, nil
	}})

	// sched_batch_warmstart runs the same batch at the same width with and
	// without warm starts. Both pivot counts are gated exactly; their ratio
	// is informational, and negative since cold solves start from lp's crash
	// basis: on these four-class models a cold node is a greedy pass and a
	// pivot or two (the all-slack start took 561 pivots to the warm 203).
	ws = append(ws, Workload{Name: "sched_batch_warmstart", Run: func() (Sample, error) {
		warmNodes, warmPivots, objective, _, err := solvePaperBatch(core.SolveOptions{Workers: BenchWorkers})
		if err != nil {
			return Sample{}, err
		}
		_, coldPivots, _, _, err := solvePaperBatch(core.SolveOptions{Workers: BenchWorkers, NoWarmStart: true})
		if err != nil {
			return Sample{}, err
		}
		return Sample{
			Nodes:  warmNodes,
			Pivots: warmPivots,
			Model: map[string]float64{
				"objective":   objective,
				"pivots_warm": float64(warmPivots),
				"pivots_cold": float64(coldPivots),
			},
			Info: map[string]float64{
				"warm_pivot_savings": 1 - float64(warmPivots)/float64(coldPivots),
			},
		}, nil
	}})

	// sched_flight_overhead prices the flight recorder: the paper batch bare
	// versus with a recorder attached, at the same width. The recorded event
	// count is deterministic per width (exact-gated via Model); the wall-time
	// overhead ratio is informational — the ISSUE budget is <= 5%, but wall
	// clock is too noisy to gate in CI.
	ws = append(ws, Workload{Name: "sched_flight_overhead", Run: func() (Sample, error) {
		nodes, pivots, objective, bareWall, err := solvePaperBatch(core.SolveOptions{Workers: BenchWorkers})
		if err != nil {
			return Sample{}, err
		}
		fr := obs.NewFlightRecorder(0)
		_, _, _, flightWall, err := solvePaperBatch(core.SolveOptions{Workers: BenchWorkers, Flight: fr})
		if err != nil {
			return Sample{}, err
		}
		sample := Sample{
			Nodes:  nodes,
			Pivots: pivots,
			Model: map[string]float64{
				"objective":      objective,
				"flight_events":  float64(fr.Total()),
				"solver_workers": BenchWorkers,
			},
			Info: map[string]float64{},
		}
		if bareWall > 0 {
			sample.Info["flight_overhead_ratio"] = flightWall.Seconds() / bareWall.Seconds()
		}
		return sample, nil
	}})

	ws = append(ws, Workload{Name: "solvercheck_scenario_batch", Run: func() (Sample, error) {
		// Fixed seed: the same 24 differential instances every iteration.
		rng := rand.New(rand.NewSource(1789))
		for i := 0; i < 24; i++ {
			specs, res := solvercheck.RandScenario(rng, solvercheck.ScenarioConfig{MaxAnalyses: 3, MaxSteps: 10})
			if err := solvercheck.CheckScenario(rng, specs, res, solvercheck.ScenarioChecks{BruteForce: true}); err != nil {
				return Sample{}, fmt.Errorf("instance %d: %w", i, err)
			}
		}
		return Sample{}, nil
	}})

	return ws
}

// solvePaperBatch solves the A1-A4/R1-R3/F1-F3 scheduling batch (the
// paper's Table 5/6/8 instances the sched_* workloads cover individually)
// with the given options and returns the summed branch-and-bound effort and
// wall time.
func solvePaperBatch(opts core.SolveOptions) (nodes, pivots int, objective float64, wall time.Duration, err error) {
	mem := int64(12) << 30
	instances := []struct {
		specs []core.AnalysisSpec
		res   core.Resources
	}{
		{experiments.WaterIonsSpecs(16384), core.Resources{Steps: 1000, TimeThreshold: 129.35, MemThreshold: mem}},
		{experiments.WaterIonsSpecs(16384), core.Resources{Steps: 1000, TimeThreshold: 64.69, MemThreshold: mem}},
		{experiments.RhodopsinSpecs(), core.Resources{Steps: 1000, TimeThreshold: 200, MemThreshold: mem}},
		{experiments.RhodopsinSpecs(), core.Resources{Steps: 1000, TimeThreshold: 20, MemThreshold: mem}},
		{experiments.FlashSpecs(), core.Resources{Steps: 1000, TimeThreshold: 43.5, MemThreshold: mem}},
	}
	t0 := time.Now()
	for _, in := range instances {
		rec, err := core.Solve(in.specs, in.res, opts)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		nodes += rec.Stats.Nodes
		pivots += rec.Stats.Pivots
		objective += rec.Objective
	}
	return nodes, pivots, objective, time.Since(t0), nil
}

// FlightSolve solves one paper scheduling instance (water+ions at the 5%
// threshold) with fr attached, so live servers can expose a real gap-closure
// curve at /solve. fr is reset and named first; the recorded stream is
// deterministic at BenchWorkers.
func FlightSolve(fr *obs.FlightRecorder) error {
	fr.Reset()
	fr.SetName("sched_waterions_a1a4_t5pct")
	_, err := core.Solve(experiments.WaterIonsSpecs(16384),
		core.Resources{Steps: 1000, TimeThreshold: 64.69, MemThreshold: int64(12) << 30},
		core.SolveOptions{Workers: BenchWorkers, Flight: fr})
	return err
}

// benchKernel is a deterministic synthetic analysis kernel: Analyze does a
// fixed amount of arithmetic, Output writes a fixed payload. It keeps the
// pipeline workloads self-contained and noise-free.
type benchKernel struct {
	name    string
	work    int
	payload []byte
	acc     float64
}

func (k *benchKernel) Name() string                    { return k.name }
func (k *benchKernel) Setup() (int64, error)           { k.acc = 0; return 1 << 10, nil }
func (k *benchKernel) PreStep(step int) (int64, error) { k.acc += float64(step); return 16, nil }
func (k *benchKernel) Free()                           {}
func (k *benchKernel) Analyze(step int) (int64, error) {
	s := k.acc
	for i := 0; i < k.work; i++ {
		s += float64(i%7) * 1.0000001
	}
	k.acc = s
	return 1 << 8, nil
}
func (k *benchKernel) Output(dst io.Writer) (int64, error) {
	n, err := dst.Write(k.payload)
	return int64(n), err
}

// benchRecommendation builds a fixed schedule: every kernel analyzes every
// `itv` steps and outputs every other analysis.
func benchRecommendation(names []string, steps, itv int) *core.Recommendation {
	rec := &core.Recommendation{}
	for _, name := range names {
		var as, os []int
		for s := itv; s <= steps; s += itv {
			as = append(as, s)
			if len(as)%2 == 0 {
				os = append(os, s)
			}
		}
		rec.Schedules = append(rec.Schedules, core.AnalysisSchedule{
			Name: name, Enabled: true, Count: len(as), Outputs: len(os),
			OutputEvery: 2, AnalysisSteps: as, OutputSteps: os,
		})
	}
	return rec
}

// InstrumentedPipeline builds the canonical pipeline workload — two
// synthetic kernels on a fixed 240-step schedule — wired to the given
// observability sinks (each may be nil). The pipeline suite measures it;
// benchobs serve loops it to keep live counters moving under /metrics.
func InstrumentedPipeline(tr *obs.Tracer, reg *obs.Registry, led *obs.EventLog) *coupling.Runner {
	const steps, itv = 240, 4
	names := []string{"k1", "k2"}
	kernels := map[string]analysis.Kernel{}
	for _, n := range names {
		kernels[n] = &benchKernel{name: n, work: 2000, payload: make([]byte, 4096)}
	}
	sink := 0.0
	return &coupling.Runner{
		Step: func() {
			for i := 0; i < 400; i++ {
				sink += float64(i) * 1.0000001
			}
		},
		Kernels: kernels,
		Rec:     benchRecommendation(names, steps, itv),
		Res:     core.Resources{Steps: steps, TimeThreshold: 1000},
		Trace:   tr,
		Metrics: reg,
		Ledger:  led,
	}
}

// pipelineWorkloads covers the coupled execution path: the step loop bare,
// the step loop with full telemetry (tracer + metrics + ledger, measuring
// observability overhead), and ledger append throughput on its own.
func pipelineWorkloads() []Workload {
	return []Workload{
		{Name: "coupling_runner_bare", Run: func() (Sample, error) {
			rep, err := InstrumentedPipeline(nil, nil, nil).Run()
			if err != nil {
				return Sample{}, err
			}
			return Sample{Model: map[string]float64{
				"analyses": float64(rep.Kernel("k1").Analyses + rep.Kernel("k2").Analyses),
				"outputs":  float64(rep.Kernel("k1").Outputs + rep.Kernel("k2").Outputs),
			}}, nil
		}},
		{Name: "coupling_runner_instrumented", Run: func() (Sample, error) {
			tr := obs.NewTracer()
			reg := obs.NewRegistry()
			led := obs.NewEventLog(io.Discard)
			rep, err := InstrumentedPipeline(tr, reg, led).Run()
			if err != nil {
				return Sample{}, err
			}
			if err := led.Close(); err != nil {
				return Sample{}, err
			}
			return Sample{Model: map[string]float64{
				"analyses":      float64(rep.Kernel("k1").Analyses + rep.Kernel("k2").Analyses),
				"trace_events":  float64(tr.Len()),
				"ledger_events": float64(led.Len()),
			}}, nil
		}},
		// sched_replan drives the closed loop end to end: the hardest corpus
		// scenario (bandwidth degrades 3x mid-run) simulated static and
		// adaptive at BenchWorkers width. The canonical-serial re-solve inside
		// replan makes every model metric byte-stable across hosts and pool
		// widths; any drift in values or replan counts is a behaviour change
		// in the solver, the monitor, or the rescheduler.
		{Name: "sched_replan", Run: func() (Sample, error) {
			var sc replan.Scenario
			for _, c := range experiments.ReplanScenarios() {
				if c.Name == "bandwidth_degradation_3x" {
					sc = c
				}
			}
			rec, err := core.Solve(sc.Specs, sc.Resources(), core.SolveOptions{Workers: BenchWorkers})
			if err != nil {
				return Sample{}, err
			}
			static, err := replan.Simulate(sc, false, BenchWorkers)
			if err != nil {
				return Sample{}, err
			}
			adaptive, err := replan.Simulate(sc, true, BenchWorkers)
			if err != nil {
				return Sample{}, err
			}
			return Sample{
				Nodes:  rec.Stats.Nodes,
				Pivots: rec.Stats.Pivots,
				Model: map[string]float64{
					"objective":      rec.Objective,
					"value_static":   static.Value,
					"value_adaptive": adaptive.Value,
					"replans":        float64(adaptive.Replans),
					"decisions":      float64(len(adaptive.Records)),
					"ledger_events":  float64(len(adaptive.Events)),
				},
			}, nil
		}},
		{Name: "eventlog_append", Run: func() (Sample, error) {
			led := obs.NewEventLog(io.Discard)
			for i := 1; i <= 2000; i++ {
				led.Event(obs.LedgerStep, "", i, time.Microsecond)
			}
			if err := led.Close(); err != nil {
				return Sample{}, err
			}
			return Sample{Model: map[string]float64{"ledger_events": float64(led.Len())}}, nil
		}},
	}
}

// iosimWorkloads covers the storage models: the burst-buffer sustained
// drain (the Table 7 NVRAM what-if), the backpressure path where outputs
// outrun the drain, and the plain GPFS write model.
func iosimWorkloads() []Workload {
	return []Workload{
		{Name: "burstbuffer_sustained_drain", Run: func() (Sample, error) {
			bb := iosim.NewBurstBuffer(1 << 41)
			var total time.Duration
			for i := 0; i < 50; i++ {
				total += bb.SustainedOutputTime(91<<30, 10, 500*time.Second, 32768)
			}
			return Sample{Model: map[string]float64{"visible_seconds": total.Seconds() / 50}}, nil
		}},
		{Name: "burstbuffer_backpressure", Run: func() (Sample, error) {
			// Capacity of one write: every subsequent write stalls on the
			// drain, exercising the backlog arithmetic.
			bb := iosim.NewBurstBuffer(92 << 30)
			var total time.Duration
			for i := 0; i < 50; i++ {
				total += bb.SustainedOutputTime(91<<30, 10, 30*time.Second, 32768)
			}
			return Sample{Model: map[string]float64{"visible_seconds": total.Seconds() / 50}}, nil
		}},
		{Name: "gpfs_write_model", Run: func() (Sample, error) {
			t := iosim.SustainedGPFS()
			var total time.Duration
			for w := 1; w <= 4096; w *= 2 {
				for i := 0; i < 100; i++ {
					total += t.WriteTime(1<<30, w)
				}
			}
			return Sample{Model: map[string]float64{"visible_seconds": total.Seconds()}}, nil
		}},
	}
}
