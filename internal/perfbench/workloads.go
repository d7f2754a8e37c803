package perfbench

import (
	"fmt"
	"io"

	"insitu/internal/analysis"
	"insitu/internal/core"
	"insitu/internal/coupling"
	"insitu/internal/experiments"
	"insitu/internal/lp"
	"insitu/internal/obs"
	"insitu/internal/replan"
	"insitu/internal/solvercheck"
)

// effort names the two counters every solving workload reports.
func effort(c Counters, nodes, pivots int) Counters {
	c["solver_nodes_per_op"] = float64(nodes)
	c["solver_pivots_per_op"] = float64(pivots)
	return c
}

// schedSolve builds a scheduling-solve workload over a fixed instance and
// reports branch-and-bound effort plus the optimal objective (any objective
// drift is a solver behaviour change). Solves run at BenchWorkers width and
// record it as solver_workers, so the baseline test can prove the catalog did
// not silently fall back to a wave of one. Warm-start health is recorded
// alongside: a rising fallback_colds means the dual-simplex warm re-solves
// stopped surviving the branching pattern, and the baseline test also bounds
// their ratio. priced_per_pivot — columns the primal simplex priced per
// simplex iteration — is a few hundred of ~2 150 on sched_large_sparse while
// working-set pricing does its job, so a slide back to one full pass per
// pivot shows here instead of waiting for a wall-clock run. refactorizations
// and eta_peak hold the factorizations themselves: a kernel change that keeps
// every pivot but rebuilds the basis more often, or with more fill, moves
// them.
func schedSolve(name string, specs []core.AnalysisSpec, res core.Resources) Workload {
	return schedSolveOpts(name, specs, res, core.SolveOptions{Workers: BenchWorkers})
}

func schedSolveOpts(name string, specs []core.AnalysisSpec, res core.Resources, opts core.SolveOptions) Workload {
	return Workload{Name: name, Run: func() (Counters, error) {
		rec, err := core.Solve(specs, res, opts)
		if err != nil {
			return nil, err
		}
		c := effort(Counters{
			"objective":        rec.Objective,
			"solver_workers":   float64(rec.Stats.Workers),
			"warm_solves":      float64(rec.Stats.WarmSolves),
			"fallback_colds":   float64(rec.Stats.FallbackColds),
			"refactorizations": float64(rec.Stats.Refactorizations),
			"eta_peak":         float64(rec.Stats.EtaPeak),
		}, rec.Stats.Nodes, rec.Stats.Pivots)
		if rec.Stats.Pivots > 0 {
			c["priced_per_pivot"] = float64(rec.Stats.PricedColumns) / float64(rec.Stats.Pivots)
		}
		return c, nil
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

// offPoolWorkload solves the off-pool corpus at 100 analyses and the default
// search width and reports deterministic effort counters only: nodes and
// simplex iterations over the corpus, the worst instance's nodes, the
// iterations of the root relaxations alone (lp.Solve on the compact model, as
// benchmark/'s lp.root_pivots probe takes them), the summed objective, the
// searches' refactorizations (summed) and eta peak (the worst instance's),
// and how the nodes split (see proofSplit).
func offPoolWorkload() Workload {
	return Workload{Name: "offpool_sparse_n100", Run: func() (Counters, error) {
		var nodes, nodesMax, pivots, rootPivots, refactors, etaPeak int
		var split proofSplit
		objective := 0.0
		for sub := int64(offPoolFirst); sub < offPoolFirst+offPoolCount; sub++ {
			specs, res := solvercheck.SparseCampaign(sub, 100)
			opts := core.SolveOptions{MaxCount: 4, MaxNodes: offPoolMaxNodes}
			rec, err := core.Solve(specs, res, opts)
			if err != nil {
				return nil, fmt.Errorf("sub-seed %d: %w", sub, err)
			}
			if rec.Stats.Nodes >= offPoolMaxNodes {
				return nil, fmt.Errorf("sub-seed %d: stopped at the %d-node cap", sub, offPoolMaxNodes)
			}
			nodes += rec.Stats.Nodes
			nodesMax = max(nodesMax, rec.Stats.Nodes)
			pivots += rec.Stats.Pivots
			refactors += rec.Stats.Refactorizations
			etaPeak = max(etaPeak, rec.Stats.EtaPeak)
			split.add(rec)
			objective += rec.Objective
			mp, err := core.CompactModel(specs, res, opts)
			if err != nil {
				return nil, err
			}
			root, err := lp.Solve(mp.LP)
			if err != nil || root.Status != lp.Optimal {
				return nil, fmt.Errorf("sub-seed %d: root relaxation: %v, %v", sub, root, err)
			}
			rootPivots += root.Iters
		}
		return split.counters(Counters{
			"nodes_total":       float64(nodes),
			"nodes_max":         float64(nodesMax),
			"pivots_total":      float64(pivots),
			"root_pivots_total": float64(rootPivots),
			"objective_total":   objective,
			"refactorizations":  float64(refactors),
			"eta_peak":          float64(etaPeak),
		}), nil
	}}
}

// proofSplit tells, over a corpus of solves, the nodes spent finding the
// optimum from those spent proving it: nodes_to_best_total sums the node
// each search found its final incumbent at (milp.Stats.NodesToBest), and
// root_gap_max is the largest gap between a root relaxation bound and the
// optimum. A search that finds the optimum at the root spends every node on
// the proof; one whose root bound is the optimum needs no proof.
type proofSplit struct {
	nodesToBest int
	rootGapMax  float64
}

func (p *proofSplit) add(rec *core.Recommendation) {
	p.nodesToBest += rec.Stats.NodesToBest
	p.rootGapMax = max(p.rootGapMax, rec.Stats.RootBound-rec.Objective)
}

func (p *proofSplit) counters(c Counters) Counters {
	c["nodes_to_best_total"] = float64(p.nodesToBest)
	c["root_gap_max"] = p.rootGapMax
	return c
}

// solverWorkloads covers the paper's scheduling instances: LAMMPS
// water+ions A1-A4 (Table 5), rhodopsin R1-R3 (Table 6), FLASH Sedov F1-F3
// (Table 8), the placement variant, the lexicographic variant, and the
// sparse synthetic campaigns on and off the benchmark pools.
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
		// paper instances, and the shape where a dense tableau would pay
		// O(rows x columns) per pivot.
		schedSolveOpts("sched_large_sparse", largeSparse, largeSparseRes,
			core.SolveOptions{Workers: BenchWorkers, MaxCount: 4}),
		offPoolWorkload(),
	}

	ws = append(ws, Workload{Name: "sched_flash_f1f3_lexicographic", Run: func() (Counters, error) {
		specs := experiments.FlashSpecs()
		specs[0].Weight, specs[1].Weight, specs[2].Weight = 2, 1, 2
		rec, err := core.SolveLexicographic(specs, core.Resources{Steps: 1000, TimeThreshold: 43.5, MemThreshold: mem}, core.SolveOptions{Workers: BenchWorkers})
		if err != nil {
			return nil, err
		}
		return effort(Counters{
			"objective":      rec.Objective,
			"solver_workers": float64(rec.Stats.Workers),
		}, rec.Stats.Nodes, rec.Stats.Pivots), nil
	}})

	ws = append(ws, Workload{Name: "placement_waterions", Run: func() (Counters, error) {
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
			return nil, err
		}
		return effort(Counters{
			"objective":      rec.Objective,
			"solver_workers": float64(rec.Stats.Workers),
		}, rec.Stats.Nodes, rec.Stats.Pivots), nil
	}})

	// sched_batch_scaling sweeps the paper batch at 1, 2, and 8 workers:
	// per-width pivot counts are deterministic.
	ws = append(ws, Workload{Name: "sched_batch_scaling", Run: func() (Counters, error) {
		c := Counters{}
		for _, w := range []int{1, 2, 8} {
			nodes, pivots, objective, split, err := solvePaperBatch(core.SolveOptions{Workers: w})
			if err != nil {
				return nil, err
			}
			c[fmt.Sprintf("pivots_w%d", w)] = float64(pivots)
			if w == 1 {
				c["objective"] = objective
				effort(split.counters(c), nodes, pivots)
			}
		}
		return c, nil
	}})

	// sched_batch_warmstart runs the same batch at the same width with and
	// without warm starts. Neither pivot count is expected to be the smaller:
	// since cold solves start from lp's crash basis, a cold node on these
	// four-class models is a greedy pass and a pivot or two (the all-slack
	// start took 561 pivots to the warm 203).
	ws = append(ws, Workload{Name: "sched_batch_warmstart", Run: func() (Counters, error) {
		warmNodes, warmPivots, objective, _, err := solvePaperBatch(core.SolveOptions{Workers: BenchWorkers})
		if err != nil {
			return nil, err
		}
		_, coldPivots, _, _, err := solvePaperBatch(core.SolveOptions{Workers: BenchWorkers, NoWarmStart: true})
		if err != nil {
			return nil, err
		}
		return effort(Counters{
			"objective":   objective,
			"pivots_warm": float64(warmPivots),
			"pivots_cold": float64(coldPivots),
		}, warmNodes, warmPivots), nil
	}})

	// sched_flight_overhead solves the paper batch with a flight recorder
	// attached: the recorded event count is deterministic per width. (What the
	// recorder costs in time is benchmark/'s obs.flight_overhead_us.)
	ws = append(ws, Workload{Name: "sched_flight_overhead", Run: func() (Counters, error) {
		fr := obs.NewFlightRecorder(0)
		nodes, pivots, objective, _, err := solvePaperBatch(core.SolveOptions{Workers: BenchWorkers, Flight: fr})
		if err != nil {
			return nil, err
		}
		return effort(Counters{
			"objective":      objective,
			"flight_events":  float64(fr.Total()),
			"solver_workers": BenchWorkers,
		}, nodes, pivots), nil
	}})

	return ws
}

// solvePaperBatch solves the A1-A4/R1-R3/F1-F3 scheduling batch (the
// paper's Table 5/6/8 instances the sched_* workloads cover individually)
// with the given options and returns the summed branch-and-bound effort.
func solvePaperBatch(opts core.SolveOptions) (nodes, pivots int, objective float64, split proofSplit, err error) {
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
	for _, in := range instances {
		rec, err := core.Solve(in.specs, in.res, opts)
		if err != nil {
			return 0, 0, 0, split, err
		}
		nodes += rec.Stats.Nodes
		pivots += rec.Stats.Pivots
		objective += rec.Objective
		split.add(rec)
	}
	return nodes, pivots, objective, split, nil
}

// benchKernel is a deterministic synthetic analysis kernel: Analyze does a
// fixed amount of arithmetic, Output writes a fixed payload. It keeps the
// pipeline workloads self-contained and noise-free.
type benchKernel struct {
	name    string
	payload []byte
	acc     float64
}

func (k *benchKernel) Name() string                    { return k.name }
func (k *benchKernel) Setup() (int64, error)           { k.acc = 0; return 1 << 10, nil }
func (k *benchKernel) PreStep(step int) (int64, error) { k.acc += float64(step); return 16, nil }
func (k *benchKernel) Free()                           {}
func (k *benchKernel) Analyze(step int) (int64, error) {
	s := k.acc
	for i := 0; i < 2000; i++ {
		s += float64(i%7) * 1.0000001
	}
	k.acc = s
	return 1 << 8, nil
}
func (k *benchKernel) Output(dst io.Writer) (int64, error) {
	n, err := dst.Write(k.payload)
	return int64(n), err
}

// The pipeline workloads run pipelineSteps steps, and every kernel analyzes
// every pipelineItv.
const pipelineSteps, pipelineItv = 240, 4

// benchRecommendation builds a fixed schedule: every kernel analyzes every
// pipelineItv steps and outputs every other analysis.
func benchRecommendation(names []string) *core.Recommendation {
	rec := &core.Recommendation{}
	for _, name := range names {
		var as, os []int
		for s := pipelineItv; s <= pipelineSteps; s += pipelineItv {
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

// instrumentedPipeline builds the canonical pipeline workload — two
// synthetic kernels on a fixed 240-step schedule — wired to the given
// observability sinks (each may be nil).
func instrumentedPipeline(tr *obs.Tracer, reg *obs.Registry, led *obs.EventLog) *coupling.Runner {
	names := []string{"k1", "k2"}
	kernels := map[string]analysis.Kernel{}
	for _, n := range names {
		kernels[n] = &benchKernel{name: n, payload: make([]byte, 4096)}
	}
	sink := 0.0
	return &coupling.Runner{
		Step: func() {
			for i := 0; i < 400; i++ {
				sink += float64(i) * 1.0000001
			}
		},
		Kernels: kernels,
		Rec:     benchRecommendation(names),
		Res:     core.Resources{Steps: pipelineSteps, TimeThreshold: 1000},
		Trace:   tr,
		Metrics: reg,
		Ledger:  led,
	}
}

// pipelineWorkloads covers the coupled execution path: the step loop bare,
// the step loop with full telemetry (tracer + metrics + ledger: every sink
// must see every event), and the closed replan loop.
func pipelineWorkloads() []Workload {
	return []Workload{
		{Name: "coupling_runner_bare", Run: func() (Counters, error) {
			rep, err := instrumentedPipeline(nil, nil, nil).Run()
			if err != nil {
				return nil, err
			}
			return Counters{
				"analyses": float64(rep.Kernel("k1").Analyses + rep.Kernel("k2").Analyses),
				"outputs":  float64(rep.Kernel("k1").Outputs + rep.Kernel("k2").Outputs),
			}, nil
		}},
		{Name: "coupling_runner_instrumented", Run: func() (Counters, error) {
			tr := obs.NewTracer()
			reg := obs.NewRegistry()
			led := obs.NewEventLog(io.Discard)
			rep, err := instrumentedPipeline(tr, reg, led).Run()
			if err != nil {
				return nil, err
			}
			if err := led.Close(); err != nil {
				return nil, err
			}
			return Counters{
				"analyses":      float64(rep.Kernel("k1").Analyses + rep.Kernel("k2").Analyses),
				"trace_events":  float64(tr.Len()),
				"ledger_events": float64(led.Len()),
			}, nil
		}},
		// sched_replan drives the closed loop end to end: the hardest corpus
		// scenario (bandwidth degrades 3x mid-run) simulated static and
		// adaptive, whose solves run at the default width, plus one solve at
		// BenchWorkers width for the effort counters. replan_nodes counts
		// the adaptive run's nodes, its up-front solve and every re-solve;
		// solver_nodes_per_op counts the one solve alone. Any drift in values
		// or replan counts is a behaviour change in the solver, the monitor,
		// or the rescheduler.
		{Name: "sched_replan", Run: func() (Counters, error) {
			var sc replan.Scenario
			for _, c := range experiments.ReplanScenarios() {
				if c.Name == "bandwidth_degradation_3x" {
					sc = c
				}
			}
			rec, err := core.Solve(sc.Specs, sc.Resources(), core.SolveOptions{Workers: BenchWorkers})
			if err != nil {
				return nil, err
			}
			static, err := replan.Simulate(sc, false, 0)
			if err != nil {
				return nil, err
			}
			adaptive, err := replan.Simulate(sc, true, 0)
			if err != nil {
				return nil, err
			}
			return effort(Counters{
				"objective":      rec.Objective,
				"value_static":   static.Value,
				"value_adaptive": adaptive.Value,
				"replans":        float64(adaptive.Replans),
				"decisions":      float64(len(adaptive.Records)),
				"ledger_events":  float64(len(adaptive.Events)),
				"fallback_colds": float64(rec.Stats.FallbackColds),
				"replan_nodes":   float64(adaptive.Nodes),
			}, rec.Stats.Nodes, rec.Stats.Pivots), nil
		}},
	}
}
