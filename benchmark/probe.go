package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"time"

	"insitu/internal/core"
	"insitu/internal/lp"
	"insitu/internal/milp"
	"insitu/internal/obs"
	"insitu/internal/replan"
	"insitu/internal/runmon"
	"insitu/internal/schedd"
)

// The traced run measures every layer from outside, by timing its public
// functions beside the end-to-end call rather than intercepting inside it
// (spans inside the program are ROADMAP item 2). The layers fall into four
// probe groups, each fed a kind of input:
//
//	solve     scenario, core, milp, lp, obs flight   a list of problems
//	service   schedd                                 a request mix
//	replan    replan, runmon                         drift scenarios
//	coupling  coupling, obs sinks                    a null-kernel run
//
// A workload feeds the groups its ops cross with its own inputs; the other
// groups run on the default inputs (the small paper_sweep, service_mix,
// replan_loop and coupled_run inputs of the same seed). So every per-layer
// number of every workload is a live measurement on this build; the README's
// table says which workload's numbers are its own.

// probeInputs is what the probe groups run on.
type probeInputs struct {
	problems  []problem
	service   *serviceGen
	scenarios []replan.Scenario
	coupled   *coupledGen
}

// overlay replaces the inputs of every group that own supplies.
func (in *probeInputs) overlay(own probeInputs) {
	if own.problems != nil {
		in.problems = own.problems
	}
	if own.service != nil {
		in.service = own.service
	}
	if own.scenarios != nil {
		in.scenarios = own.scenarios
	}
	if own.coupled != nil {
		in.coupled = own.coupled
	}
}

// defaultProbeInputs builds the inputs for the groups a workload does not
// cross: each group's from the small size of the workload that owns it.
func defaultProbeInputs(seed int64) (probeInputs, error) {
	var in probeInputs
	// paper_sweep last: service_mix and replan_loop also bring problems.
	for _, w := range []workload{serviceMix, replanLoop, coupledRun, paperSweep} {
		g := w.generate(seed, small)
		if err := g.reference(); err != nil {
			return in, err
		}
		in.overlay(g.probeInputs())
	}
	return in, nil
}

// tracePairs is how many untraced/traced pass pairs the traced run makes.
const tracePairs = 3

// replayOpBase offsets the op IDs of replay spans whose inputs are not the
// traced pass's own op list, so they never collide with an op span's ID.
const replayOpBase = 1 << 20

// prober accumulates the per-layer values and the failures of the checks the
// probes make.
type prober struct {
	rec      *recorder
	values   map[string]float64
	attempts int
	failed   int
	messages []string
}

func (pb *prober) fail(format string, args ...any) {
	pb.failed++
	if len(pb.messages) < 5 {
		pb.messages = append(pb.messages, fmt.Sprintf(format, args...))
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// runTraced runs the traced pass of one workload and the four probe groups,
// writes the spans to tracePath and reports the per-layer metrics.
func runTraced(cfg runConfig, tracePath string) (result, []string, error) {
	cfg.setupReps = 1
	gen, inst, _, warm, err := setUp(cfg)
	if err != nil {
		return result{}, nil, err
	}
	pb := &prober{rec: newRecorder(), values: map[string]float64{}, attempts: len(warm.ms), failed: warm.failed, messages: warm.messages}

	// Untraced and traced passes over the same ops, alternating: the median
	// ratio of an op's two lowest latencies, minus one, is what the span
	// recorder costs. The registry snapshots bracket the last traced pass.
	plain, traced := &sink{}, &sink{rec: pb.rec}
	var before, after []obs.Metric
	for k := 0; k < tracePairs; k++ {
		inst.pass(1+2*k, false, plain)
		before = metricSnapshot(inst)
		inst.pass(2+2*k, true, traced)
		after = metricSnapshot(inst)
	}
	pb.attempts += len(plain.ms) + len(traced.ms)
	pb.failed += plain.failed + traced.failed
	pb.messages = append(pb.messages, append(plain.messages, traced.messages...)...)
	off, on := plain.quietest(plain.ms, inst.ops()), traced.quietest(traced.ms, inst.ops())
	for i := range on {
		on[i] /= off[i]
	}
	pb.values["trace_overhead_share"] = median(on) - 1
	// Read before the probe groups run: their service pass would be the peak.
	if pb.values["process.peak_rss_mb"], err = peakRSSMiB(); err != nil {
		return result{}, nil, err
	}

	in, err := defaultProbeInputs(cfg.seed)
	if err != nil {
		return result{}, nil, err
	}
	own := gen.probeInputs()
	in.overlay(own)
	base := replayOpBase
	if _, ok := gen.(*solveSet); ok {
		base = 0 // replay i belongs to op i of the traced pass
	}

	pb.probeSolve(in.problems, base)
	if own.service != nil {
		pb.serviceFromPass(traced, before, after)
	} else {
		pb.probeServicePass(in.service)
	}
	pb.probeServiceLayers(in.service)
	pb.probeReplan(in.scenarios)
	pb.probeCoupling(in.coupled)

	if err := pb.rec.flush(tracePath, cfg.workload.name, cfg.seed); err != nil {
		return result{}, nil, err
	}
	return newResult(perLayer, pb.values, pb.attempts, pb.failed, true), pb.messages, nil
}

// probeSolve replays the solve stack on each problem: the end-to-end
// core.Solve, then each layer's public entry point on the same input.
func (pb *prober) probeSolve(problems []problem, opBase int) {
	var solve, build, buildAlloc, validate, milpT, root, warm, flight, residual []float64
	var parse, finger, decode []float64
	var columns, rootPivots int
	var st milp.Stats
	var ms runtime.MemStats
	replay := func(pr *problem, id int) {
		top := pb.rec.begin("replay", 0, id)
		defer pb.rec.end(top)
		pb.attempts++

		var rc *core.Recommendation
		var err error
		dSolve := pb.rec.around("core.solve", top, id, func() { rc, err = pr.solve() })
		if msg := pr.checkRec(rc, err, false); msg != "" {
			pb.fail("replay %d: %s", id, msg)
			return
		}

		// Layer scenario: the wire form of this problem, decoded as the
		// service decodes it.
		if d, ok := pb.probeScenario(pr, top, id); ok {
			parse, finger, decode = append(parse, us(d[0])), append(finger, us(d[1])), append(decode, us(d[2]))
		}

		// Layer core: normalise → mode enumeration → LP build, then the
		// constraint re-validation of the answer.
		var names []string
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		dBuild := pb.rec.around("core.build", top, id, func() { names, err = core.CompactNames(pr.specs, pr.res, pr.opts) })
		runtime.ReadMemStats(&ms)
		if err != nil {
			pb.fail("replay %d: build: %v", id, err)
		}
		buildAlloc = append(buildAlloc, float64(ms.TotalAlloc-alloc0)/1024)
		columns += len(names)
		dValidate := pb.rec.around("core.validate", top, id, func() { err = rc.Validate(pr.specs, pr.res) })
		if err != nil {
			pb.fail("replay %d: validate: %v", id, err)
		}

		// Layer milp: the same model through the ExportLP → ReadLP round
		// trip, searched at the workload's width. The search must do exactly
		// the work the end-to-end call reported, or the replay measures
		// something else.
		var mp *milp.Problem
		pb.rec.around("harness.roundtrip", top, id, func() { mp, err = roundTrip(pr) })
		if err != nil {
			pb.fail("replay %d: round trip: %v", id, err)
			return
		}
		var sol *milp.Solution
		dMilp := pb.rec.around("milp.solve", top, id, func() { sol, err = milp.Solve(mp, milp.Options{Workers: pr.opts.Workers}) })
		if err != nil {
			pb.fail("replay %d: milp: %v", id, err)
			return
		}
		if sol.Stats.Nodes != rc.Stats.Nodes || sol.Stats.Pivots != rc.Stats.Pivots {
			pb.fail("replay %d: round-tripped search did %d nodes/%d pivots, core.Solve %d/%d",
				id, sol.Stats.Nodes, sol.Stats.Pivots, rc.Stats.Nodes, rc.Stats.Pivots)
		}
		st.Nodes += sol.Stats.Nodes
		st.Relaxations += sol.Stats.Relaxations
		st.Pivots += sol.Stats.Pivots
		st.WarmSolves += sol.Stats.WarmSolves
		st.ColdSolves += sol.Stats.ColdSolves
		st.FallbackColds += sol.Stats.FallbackColds

		// Layer lp: the root relaxation cold, then one warm re-solve after
		// fixing its most fractional binary to zero, as a branch does.
		var relax *lp.Solution
		dRoot := pb.rec.around("lp.root", top, id, func() { relax, err = lp.Solve(mp.LP) })
		if err != nil || relax.Status != lp.Optimal {
			pb.fail("replay %d: root relaxation: %v", id, err)
			return
		}
		rootPivots += relax.Iters
		if d, ok := pb.warmResolve(mp, relax, top, id); ok {
			warm = append(warm, us(d))
		}

		// Layer obs: the same solve with a flight recorder attached, as
		// schedd always runs it.
		dFlight := pb.rec.around("core.solve+flight", top, id, func() {
			opts := pr.opts
			opts.Flight = obs.NewFlightRecorder(0)
			_, err = core.Solve(pr.specs, pr.res, opts)
		})
		if err != nil {
			pb.fail("replay %d: flight solve: %v", id, err)
		}

		solve = append(solve, us(dSolve))
		build = append(build, us(dBuild))
		validate = append(validate, us(dValidate))
		milpT = append(milpT, us(dMilp))
		root = append(root, us(dRoot))
		flight = append(flight, us(dFlight-dSolve))
		residual = append(residual, us(dSolve-dBuild-dMilp-dValidate))
	}
	for i := range problems {
		replay(&problems[i], opBase+i)
	}

	// Means, not medians: the shares of the layers must add up over the pass.
	v := pb.values
	v["scenario.parse_us"] = mean(parse)
	v["scenario.fingerprint_us"] = mean(finger)
	v["scenario.decode_us"] = mean(decode)
	v["core.solve_us"] = mean(solve)
	v["core.build_us"] = mean(build)
	v["core.build_alloc_kb"] = mean(buildAlloc)
	v["core.columns"] = float64(columns)
	v["core.validate_us"] = mean(validate)
	v["core.residual_us"] = mean(residual)
	v["core.residual_share"] = mean(residual) / mean(solve)
	v["milp.solve_us"] = mean(milpT)
	v["milp.us_per_node"] = mean(milpT) * float64(len(milpT)) / float64(st.Nodes)
	v["milp.nodes"] = float64(st.Nodes)
	v["milp.relaxations"] = float64(st.Relaxations)
	v["milp.pivots"] = float64(st.Pivots)
	v["milp.warm_solves"] = float64(st.WarmSolves)
	v["milp.cold_solves"] = float64(st.ColdSolves)
	v["milp.fallback_colds"] = float64(st.FallbackColds)
	v["milp.warm_ratio"] = float64(st.WarmSolves) / float64(st.WarmSolves+st.ColdSolves)
	v["lp.root_us"] = mean(root)
	v["lp.root_pivots"] = float64(rootPivots)
	v["lp.us_per_pivot"] = mean(root) * float64(len(root)) / float64(rootPivots)
	v["lp.warm_resolve_us"] = mean(warm)
	// A median: the recorder's cost is one large allocation, so single solves
	// that happen to pay for a collection would swamp a mean.
	v["obs.flight_overhead_us"] = median(flight)
}

// roundTrip exports the problem's compact model as an LP file and parses it
// back: the only way to reach milp.Solve on core's model from outside core.
func roundTrip(pr *problem) (*milp.Problem, error) {
	var buf bytes.Buffer
	if err := core.ExportLP(&buf, pr.specs, pr.res, pr.opts); err != nil {
		return nil, err
	}
	return milp.ReadLP(&buf)
}

// warmResolve times Solver.Solve from the root basis after fixing the most
// fractional integer variable of the relaxation to zero. It reports false when
// the relaxation is already integral (nothing to branch on).
func (pb *prober) warmResolve(mp *milp.Problem, relax *lp.Solution, parent, id int) (time.Duration, bool) {
	branch, dist := -1, 1e-6
	for j, x := range relax.X {
		if !mp.Integer[j] {
			continue
		}
		if f := math.Abs(x - math.Round(x)); f > dist {
			branch, dist = j, f
		}
	}
	if branch < 0 {
		return 0, false
	}
	solver, err := lp.NewSolver(mp.LP)
	if err != nil {
		pb.fail("replay %d: lp.NewSolver: %v", id, err)
		return 0, false
	}
	solver.Lean = true
	lower := append([]float64(nil), mp.LP.Lower...)
	upper := append([]float64(nil), mp.LP.Upper...)
	solver.SolveCold(lower, upper)
	upper[branch] = 0
	var warm bool
	d := pb.rec.around("lp.warm_resolve", parent, id, func() { _, warm = solver.Solve(lower, upper) })
	return d, warm
}

// probeScenario times the three things the service does to a request body
// before it can look anything up: parse, fingerprint, decode.
func (pb *prober) probeScenario(pr *problem, parent, id int) ([3]time.Duration, bool) {
	body := encodeRequest(pr.specs, pr.res)
	var req schedd.SolveRequest
	var err error
	dParse := pb.rec.around("scenario.parse", parent, id, func() { err = json.Unmarshal(body, &req) })
	if err != nil {
		pb.fail("replay %d: parse: %v", id, err)
		return [3]time.Duration{}, false
	}
	var fp string
	dFinger := pb.rec.around("scenario.fingerprint", parent, id, func() { fp = req.Scenario.Fingerprint() })
	var specs []core.AnalysisSpec
	dDecode := pb.rec.around("scenario.decode", parent, id, func() { specs, _ = req.Scenario.Decode() })
	if fp == "" || len(specs) != len(pr.specs) {
		pb.fail("replay %d: scenario round trip lost analyses", id)
	}
	return [3]time.Duration{dParse, dFinger, dDecode}, true
}

// metricSnapshot reads the service registry of a service instance (nil for
// the other workloads).
func metricSnapshot(inst instance) []obs.Metric {
	if s, ok := inst.(*serviceInst); ok {
		return s.srv.Registry().Snapshot()
	}
	return nil
}

// metricDelta returns the growth of a counter (or of a histogram's sum and
// count) between two snapshots, summed over label sets.
func metricDelta(before, after []obs.Metric, name string) (value float64, count int64) {
	for _, m := range after {
		if m.Name == name {
			value += m.Value
			count += m.Count
		}
	}
	for _, m := range before {
		if m.Name == name {
			value -= m.Value
			count -= m.Count
		}
	}
	return value, count
}

// serviceFromPass reads the service-level numbers off a pass through the
// service: hit and miss latencies from the op samples (classified by each
// response), cache and queue behaviour from the registry's growth.
func (pb *prober) serviceFromPass(s *sink, before, after []obs.Metric) {
	var hits, misses []float64
	for i, ms := range s.ms {
		if s.class[i] == classHit {
			hits = append(hits, ms)
		} else {
			misses = append(misses, ms)
		}
	}
	sort.Float64s(hits)
	sort.Float64s(misses)
	v := pb.values
	v["schedd.hit_us_p50"] = percentile(hits, 0.5) * 1e3
	v["schedd.miss_ms_p50"] = percentile(misses, 0.5)
	v["schedd.miss_ms_p99"] = percentile(misses, 0.99)
	h, _ := metricDelta(before, after, "schedd_cache_hits_total")
	m, _ := metricDelta(before, after, "schedd_cache_misses_total")
	v["schedd.cache_hit_ratio"] = h / (h + m)
	v["schedd.evictions"], _ = metricDelta(before, after, "schedd_cache_evictions_total")
	v["schedd.coalesced"], _ = metricDelta(before, after, "schedd_coalesced_total")
	waitSec, waits := metricDelta(before, after, "schedd_queue_seconds")
	v["schedd.queue_wait_us_mean"] = waitSec * 1e6 / float64(waits)
}

// probeServicePass runs one pass of a request mix through a fresh service for
// the workloads that do not drive one themselves.
func (pb *prober) probeServicePass(g *serviceGen) {
	inst := g.startService()
	warm, s := &sink{}, &sink{}
	inst.pass(0, true, warm)
	before := metricSnapshot(inst)
	inst.pass(1, true, s)
	pb.attempts += len(warm.ms) + len(s.ms)
	pb.failed += warm.failed + s.failed
	pb.messages = append(pb.messages, append(warm.messages, s.messages...)...)
	pb.serviceFromPass(s, before, metricSnapshot(inst))
}

// probeServiceLayers times the pieces of a cache hit on a fresh service: the
// pipeline without HTTP (Process), the whole handler, and the response encode.
func (pb *prober) probeServiceLayers(g *serviceGen) {
	srv := schedd.New(g.cfg)
	handler := srv.Handler()
	var process, serve, encode []float64
	w := &respWriter{header: http.Header{}}
	for i, op := range g.hotSet {
		id := replayOpBase*2 + i
		top := pb.rec.begin("replay.service", 0, id)
		pb.attempts++
		var req schedd.SolveRequest
		if err := json.Unmarshal(op.body, &req); err != nil {
			pb.fail("service replay %d: %v", id, err)
			pb.rec.end(top)
			continue
		}
		// The first call solves and fills the cache; the timed ones hit.
		resp, code := srv.Process(context.Background(), "", req)
		if code != http.StatusOK {
			pb.fail("service replay %d: status %d", id, code)
			pb.rec.end(top)
			continue
		}
		dProcess := pb.rec.around("schedd.process_hit", top, id, func() { resp, code = srv.Process(context.Background(), "", req) })
		if code != http.StatusOK || !resp.CacheHit {
			pb.fail("service replay %d: second request was not a cache hit", id)
		}
		hreq, err := http.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(op.body))
		if err != nil {
			panic(err) // constant method and URL
		}
		w.reset()
		dServe := pb.rec.around("schedd.serve_hit", top, id, func() { handler.ServeHTTP(w, hreq) })
		if _, msg := checkResponse(w, &op.pr, true); msg != "" {
			pb.fail("service replay %d: %s", id, msg)
		}
		dEncode := pb.rec.around("schedd.encode", top, id, func() {
			enc := json.NewEncoder(io.Discard)
			enc.SetIndent("", "  ")
			err = enc.Encode(resp)
		})
		if err != nil {
			pb.fail("service replay %d: encode: %v", id, err)
		}
		pb.rec.end(top)
		process = append(process, us(dProcess))
		serve = append(serve, us(dServe))
		encode = append(encode, us(dEncode))
	}
	pb.values["schedd.process_hit_us"] = median(process)
	pb.values["schedd.handler_overhead_us"] = median(serve) - median(process)
	pb.values["schedd.encode_us"] = median(encode)
}

// probeReplan runs every scenario adaptive and static (the difference is what
// replanning costs), then replays the adaptive run's events through runmon.
func (pb *prober) probeReplan(scenarios []replan.Scenario) {
	var adaptive, static, analyze []float64
	var replans, decisions, events int
	var observe time.Duration
	for i, sc := range scenarios {
		id := replayOpBase*3 + i
		top := pb.rec.begin("replay.replan", 0, id)
		pb.attempts++
		var ad, st replan.SimResult
		var err error
		dAdaptive := pb.rec.around("replan.adaptive", top, id, func() { ad, err = replan.Simulate(sc, true, 0) })
		if msg := checkSim(sc, ad, err, false); msg != "" {
			pb.fail("replan replay %d: %s", id, msg)
			pb.rec.end(top)
			continue
		}
		dStatic := pb.rec.around("replan.static", top, id, func() { st, err = replan.Simulate(sc, false, 0) })
		if err != nil || st.Replans != 0 {
			pb.fail("replan replay %d: static run: %v, %d replans", id, err, st.Replans)
		}
		profile := runmon.FromEvents(ad.Events)
		mon := runmon.NewMonitor(profile, runmon.Config{})
		observe += pb.rec.around("runmon.observe", top, id, func() {
			for _, e := range ad.Events {
				mon.Observe(e)
			}
		})
		dAnalyze := pb.rec.around("runmon.analyze", top, id, func() { runmon.Analyze(ad.Events, profile, runmon.Config{}) })
		pb.rec.end(top)

		adaptive = append(adaptive, us(dAdaptive))
		static = append(static, us(dStatic))
		analyze = append(analyze, us(dAnalyze))
		replans += ad.Replans
		decisions += len(ad.Records)
		events += len(ad.Events)
	}
	v := pb.values
	v["replan.adaptive_us"] = mean(adaptive)
	v["replan.static_us"] = mean(static)
	v["replan.replans"] = float64(replans)
	v["replan.decisions"] = float64(decisions)
	v["runmon.observe_ns"] = float64(observe.Nanoseconds()) / float64(events)
	v["runmon.analyze_us"] = mean(analyze)
}

// probeCoupling runs the coupled run bare and instrumented, then prices each
// telemetry sink on its own with as many events as the run emitted.
func (pb *prober) probeCoupling(g *coupledGen) {
	var bare, instrumented []float64
	events := 0
	for r := 0; r < g.runs; r++ {
		id := replayOpBase*4 + r
		top := pb.rec.begin("replay.coupling", 0, id)
		pb.attempts++
		run, _ := g.runner(r, true)
		var err error
		dBare := pb.rec.around("coupling.bare", top, id, func() { _, err = run.Run() })
		if err != nil {
			pb.fail("coupling replay %d: %v", id, err)
		}
		run, sinks := g.runner(r, false)
		dInst := pb.rec.around("coupling.instrumented", top, id, func() { _, err = run.Run() })
		if err != nil {
			pb.fail("coupling replay %d: %v", id, err)
		}
		pb.rec.end(top)
		events = sinks.observed
		bare = append(bare, float64(dBare.Nanoseconds())/float64(g.steps))
		instrumented = append(instrumented, float64(dInst.Nanoseconds())/float64(g.steps))
	}
	v := pb.values
	v["coupling.bare_step_ns"] = median(bare)
	v["coupling.instrumented_step_ns"] = median(instrumented)

	top := pb.rec.begin("replay.obs", 0, replayOpBase*5)
	var ms runtime.MemStats
	led := obs.NewEventLog(io.Discard)
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	d := pb.rec.around("obs.eventlog_append", top, replayOpBase*5, func() {
		for i := 1; i <= events; i++ {
			led.Event(obs.LedgerStep, "", i, time.Microsecond)
		}
	})
	runtime.ReadMemStats(&ms)
	v["obs.eventlog_append_ns"] = float64(d.Nanoseconds()) / float64(events)
	v["obs.eventlog_allocs_per_event"] = float64(ms.Mallocs-mallocs) / float64(events)
	if err := led.Close(); err != nil || led.Len() != events {
		pb.fail("event log probe: %v, %d of %d events", err, led.Len(), events)
	}

	tr := obs.NewTracer()
	d = pb.rec.around("obs.tracer_span", top, replayOpBase*5, func() {
		for i := 0; i < events; i++ {
			tr.Begin("step", "sim").End()
		}
	})
	v["obs.tracer_span_ns"] = float64(d.Nanoseconds()) / float64(events)

	reg := obs.NewRegistry()
	hist, ctr := reg.Histogram("probe_seconds", nil, nil), reg.Counter("probe_total", nil)
	d = pb.rec.around("obs.registry_observe", top, replayOpBase*5, func() {
		for i := 0; i < events; i++ {
			hist.Observe(1e-6 * float64(i))
			ctr.Inc()
		}
	})
	v["obs.registry_observe_ns"] = float64(d.Nanoseconds()) / float64(events)
	pb.rec.end(top)
}
