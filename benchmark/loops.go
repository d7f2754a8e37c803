package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"

	"insitu/internal/analysis"
	"insitu/internal/core"
	"insitu/internal/coupling"
	"insitu/internal/experiments"
	"insitu/internal/obs"
	"insitu/internal/replan"
	"insitu/internal/runmon"
)

// replanLoop closes the monitor→replan loop in simulation: an up-front solve,
// a 100-step run against a truth that drifts, runmon scoring every event, and
// shrinking-horizon re-solves whenever the replanner adopts a new schedule.
var replanLoop = workload{
	name:    "replan_loop",
	why:     "replan.Simulate(adaptive) over the four-scenario drift corpus under seeded observation noise: an up-front solve plus shrinking-horizon re-solves, with runmon scoring every event",
	clients: 1,
	generate: func(seed int64, sz size) generated {
		// The corpus is fixed; the seed draws the observation noise each
		// scenario is run under, several draws per scenario.
		draws := 16
		if sz == small {
			draws = 1
		}
		g := &replanGen{}
		for _, sc := range experiments.ReplanScenarios() {
			g.upFront = append(g.upFront, problem{specs: sc.Specs, res: sc.Resources()})
			for d := 0; d < draws; d++ {
				sc.Seed = subSeed(seed, fmt.Sprintf("replan_loop/%s/%d", sc.Name, d))
				g.scenarios = append(g.scenarios, sc)
			}
		}
		return g
	},
}

type replanGen struct {
	scenarios []replan.Scenario
	// upFront holds each corpus scenario's up-front solve as a problem, for
	// the traced run's solve-stack probes.
	upFront []problem
}

func (g *replanGen) opList() []byte {
	var b bytes.Buffer
	for _, sc := range g.scenarios {
		fmt.Fprintf(&b, "%+v\n", sc)
	}
	return b.Bytes()
}

func (g *replanGen) reference() error {
	for i := range g.upFront {
		// The corpus is fixed and the simulator solves it as it is: a
		// threshold that had to move would no longer be the corpus's.
		if moved, err := g.upFront[i].computeRef(); err != nil || moved {
			return fmt.Errorf("up-front solve of corpus scenario %d: moved=%t, %v", i, moved, err)
		}
	}
	return nil
}

func (g *replanGen) start() instance { return g }
func (g *replanGen) ops() int        { return len(g.scenarios) }
func (g *replanGen) probeInputs() probeInputs {
	return probeInputs{scenarios: g.scenarios, problems: g.upFront}
}

func (g *replanGen) pass(p int, deep bool, s *sink) {
	for i, sc := range g.scenarios {
		// The pass number goes into the run's name, which the simulator
		// carries into its event stream and never computes with.
		sc.Name = fmt.Sprintf("%s#%d", sc.Name, p)
		var out replan.SimResult
		var err error
		s.timed(i,
			func() { out, err = replan.Simulate(sc, true, 0) },
			func() (byte, string) { return 0, checkSim(sc, out, err, deep) })
	}
}

// checkSim verifies one simulated run. A noise draw has no reference value,
// so the check is the set of properties every run of the corpus must have;
// deep also replays the run and demands the same outcome.
func checkSim(sc replan.Scenario, out replan.SimResult, err error, deep bool) string {
	if err != nil {
		return err.Error()
	}
	if math.IsNaN(out.Value) || out.Value <= 0 {
		return fmt.Sprintf("realized value %v", out.Value)
	}
	if len(out.Events) < sc.Steps+2 {
		return fmt.Sprintf("%d events for a %d-step run", len(out.Events), sc.Steps)
	}
	if out.Replans > len(out.Records) {
		return fmt.Sprintf("%d replans adopted out of %d decisions", out.Replans, len(out.Records))
	}
	if sc.Perturb == replan.PerturbNone && out.Replans != 0 {
		return fmt.Sprintf("control run replanned %d times", out.Replans)
	}
	if deep {
		again, err := replan.Simulate(sc, true, 0)
		if err != nil {
			return err.Error()
		}
		if again.Value != out.Value || len(again.Events) != len(out.Events) || again.Replans != out.Replans {
			return "replay of the same scenario and seed differs"
		}
	}
	return ""
}

// coupledRun executes a fixed schedule with kernels that do nothing, wired to
// every telemetry sink, so the step loop and the telemetry spine are the work.
var coupledRun = workload{
	name:    "coupled_run",
	why:     "coupling.Runner.Run of 2000 steps with four null kernels wired to tracer, registry, event log and a live runmon monitor: the step loop and the telemetry spine, which the other workloads barely touch",
	clients: 1,
	generate: func(seed int64, sz size) generated {
		g := &coupledGen{steps: 2000, runs: 16}
		if sz == small {
			g.steps, g.runs = 200, 2
		}
		// Every kernel analyzes every 4th step and outputs every 5th
		// analysis; the seed moves each kernel's phase, which changes which
		// steps carry work and not how much work there is.
		rng := rand.New(rand.NewSource(subSeed(seed, "coupled_run")))
		for r := 0; r < g.runs; r++ {
			var phases [coupledKernels]int
			for k := range phases {
				phases[k] = rng.Intn(coupledInterval)
			}
			g.phases = append(g.phases, phases)
		}
		return g
	},
}

const (
	coupledKernels     = 4
	coupledInterval    = 4
	coupledOutputEvery = 5
)

type coupledGen struct {
	steps, runs int
	phases      [][coupledKernels]int
}

func (g *coupledGen) opList() []byte {
	return []byte(fmt.Sprintf("steps=%d phases=%v", g.steps, g.phases))
}

func (g *coupledGen) reference() error         { return nil }
func (g *coupledGen) start() instance          { return g }
func (g *coupledGen) ops() int                 { return g.runs }
func (g *coupledGen) probeInputs() probeInputs { return probeInputs{coupled: g} }

// nullKernel satisfies analysis.Kernel and does nothing.
type nullKernel struct{ name string }

func (k nullKernel) Name() string                    { return k.name }
func (k nullKernel) Setup() (int64, error)           { return 0, nil }
func (k nullKernel) PreStep(int) (int64, error)      { return 0, nil }
func (k nullKernel) Analyze(int) (int64, error)      { return 0, nil }
func (k nullKernel) Output(io.Writer) (int64, error) { return 0, nil }
func (k nullKernel) Free()                           {}

// specs are the scheduling inputs the executed plan stands for; runmon derives
// its predictions from them.
func (g *coupledGen) specs() []core.AnalysisSpec {
	specs := make([]core.AnalysisSpec, coupledKernels)
	for k := range specs {
		specs[k] = core.AnalysisSpec{Name: fmt.Sprintf("k%d", k), CT: 1e-6, OT: 1e-6, MinInterval: coupledInterval}
	}
	return specs
}

// recommendation builds run r's schedule, and returns it with the number of
// analyses and outputs it holds.
func (g *coupledGen) recommendation(r int) (rec *core.Recommendation, analyses, outputs int) {
	rec = &core.Recommendation{}
	for k, spec := range g.specs() {
		var as, os []int
		for s := coupledInterval + g.phases[r][k]; s <= g.steps; s += coupledInterval {
			as = append(as, s)
			if len(as)%coupledOutputEvery == 0 {
				os = append(os, s)
			}
		}
		rec.Schedules = append(rec.Schedules, core.AnalysisSchedule{
			Name: spec.Name, Enabled: true, Count: len(as), Outputs: len(os),
			OutputEvery: coupledOutputEvery, AnalysisSteps: as, OutputSteps: os,
		})
		analyses += len(as)
		outputs += len(os)
	}
	return rec, analyses, outputs
}

// runner wires run r to fresh sinks (all nil when bare) and returns it with
// the sinks it was given.
func (g *coupledGen) runner(r int, bare bool) (*coupling.Runner, *coupledSinks) {
	rec, analyses, outputs := g.recommendation(r)
	res := core.Resources{Steps: g.steps, TimeThreshold: 1000}
	kernels := map[string]analysis.Kernel{}
	for _, s := range rec.Schedules {
		kernels[s.Name] = nullKernel{s.Name}
	}
	run := &coupling.Runner{Step: func() {}, Kernels: kernels, Rec: rec, Res: res, App: "benchmark/coupled_run"}
	sinks := &coupledSinks{analyses: analyses, outputs: outputs}
	if !bare {
		sinks.tracer = obs.NewTracer()
		sinks.registry = obs.NewRegistry()
		sinks.ledger = obs.NewEventLog(io.Discard)
		sinks.monitor = runmon.NewMonitor(runmon.FromPlan(g.specs(), rec, res, 1e-6), runmon.Config{})
		sinks.observe = func(e obs.LedgerEvent) {
			sinks.observed++
			sinks.monitor.Observe(e)
		}
		run.Trace, run.Metrics, run.Ledger, run.Observe = sinks.tracer, sinks.registry, sinks.ledger, sinks.observe
	}
	return run, sinks
}

type coupledSinks struct {
	tracer            *obs.Tracer
	registry          *obs.Registry
	ledger            *obs.EventLog
	monitor           *runmon.Monitor
	observe           func(obs.LedgerEvent)
	observed          int
	analyses, outputs int
}

func (g *coupledGen) pass(p int, deep bool, s *sink) {
	for r := 0; r < g.runs; r++ {
		run, sinks := g.runner(r, false)
		var rep *coupling.Report
		var err error
		s.timed(r,
			func() { rep, err = run.Run() },
			func() (byte, string) { return 0, g.checkRun(rep, err, sinks) })
	}
}

// checkRun verifies that the run executed exactly the planned work and that
// every sink saw every event: run start and end, one event per step, analysis
// and output.
func (g *coupledGen) checkRun(rep *coupling.Report, err error, sinks *coupledSinks) string {
	if err != nil {
		return err.Error()
	}
	var analyses, outputs int
	for _, k := range rep.Kernels {
		analyses += k.Analyses
		outputs += k.Outputs
	}
	if rep.Steps != g.steps || analyses != sinks.analyses || outputs != sinks.outputs {
		return fmt.Sprintf("ran %d steps, %d analyses, %d outputs; planned %d, %d, %d",
			rep.Steps, analyses, outputs, g.steps, sinks.analyses, sinks.outputs)
	}
	events := 2 + g.steps + sinks.analyses + sinks.outputs
	if err := sinks.ledger.Close(); err != nil {
		return err.Error()
	}
	if sinks.ledger.Len() != events || sinks.observed != events {
		return fmt.Sprintf("ledger holds %d events, monitor saw %d, run emitted %d", sinks.ledger.Len(), sinks.observed, events)
	}
	// One span per step and advance, analysis, output and kernel set-up.
	if spans := 2*g.steps + sinks.analyses + sinks.outputs + coupledKernels; sinks.tracer.Len() < spans {
		return fmt.Sprintf("tracer holds %d events, want at least %d", sinks.tracer.Len(), spans)
	}
	return ""
}
