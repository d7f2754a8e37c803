// Package campaign is the front door of the library: it strings together
// the full workflow of the paper for one science campaign — profile the
// analysis kernels against the live simulation (§4), solve the scheduling
// MILP under the chosen threshold policy (§3.2), execute the recommended
// schedule (§5), and report predicted-versus-executed overhead. Downstream
// codes embed their simulation behind the Simulation interface and their
// analyses behind analysis.Kernel; everything else is configuration. It is
// the only implementation of that pipeline: cmd/mdsim, cmd/flashsim and
// experiments.ValidateCoupling build a Config and print what comes back.
package campaign

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"insitu/internal/analysis"
	"insitu/internal/core"
	"insitu/internal/coupling"
	"insitu/internal/iosim"
	"insitu/internal/machine"
	"insitu/internal/obs"
	"insitu/internal/replan"
	"insitu/internal/runmon"
)

// Simulation is the minimal contract a simulation code implements to join a
// campaign.
type Simulation interface {
	// Name identifies the application.
	Name() string
	// Step advances one simulation time step.
	Step()
	// MemoryBytes estimates the simulation's resident state, used to derive
	// the memory available for analyses.
	MemoryBytes() int64
}

// SimFunc adapts a name, step closure and memory estimate to Simulation.
type SimFunc struct {
	AppName  string
	StepFn   func()
	MemBytes int64
}

// Name implements Simulation.
func (s SimFunc) Name() string { return s.AppName }

// Step implements Simulation.
func (s SimFunc) Step() { s.StepFn() }

// MemoryBytes implements Simulation.
func (s SimFunc) MemoryBytes() int64 { return s.MemBytes }

// Config describes a campaign.
type Config struct {
	Sim     Simulation
	Kernels []analysis.Kernel

	// Steps is the production run length.
	Steps int
	// MinInterval is the itv applied to every analysis (a science choice).
	MinInterval int

	// ThresholdPercent sets the analysis budget as a percentage of the
	// simulation time (§5.3.2); it must be positive.
	ThresholdPercent float64

	// MemBudget is the memory available for analyses; 0 derives it from
	// machine.Laptop()'s per-node memory minus the simulation footprint.
	MemBudget int64

	// Weights prioritizes analyses by kernel name (others default to 1).
	Weights map[string]float64

	// Output receives analysis output during execution (default discard).
	Output io.Writer

	// Trace, when non-nil, records the executed run as a timeline (see
	// obs.Tracer); it is handed to the coupling runner unchanged.
	Trace *obs.Tracer
	// Metrics, when non-nil, collects run counters; Outcome.Metrics holds a
	// snapshot taken after execution and Summary appends it.
	Metrics *obs.Registry
	// Ledger, when non-nil, receives the campaign as a JSONL run ledger: a
	// solve event from Plan (branch-and-bound nodes, pivots, objective, and
	// solve time) followed by the executed run's events from the coupling
	// runner. runmon report replays the file.
	Ledger *obs.EventLog
	// Monitor, when non-nil, watches the executed run live: Execute installs
	// the solved plan as the monitor's predicted profile, writes the profile
	// into the ledger as plan events (so post-hoc runmon report sees the
	// same predictions), and feeds every run event through the monitor's
	// drift detectors as it happens.
	Monitor *runmon.Monitor
	// Replan, when non-nil, closes the loop on the executed run: Execute
	// builds a replan.Replanner over the live monitor (creating one when
	// Monitor is nil) and installs it as the coupling runner's replan hook,
	// so drift and budget alerts trigger rolling-horizon reschedules
	// mid-run. Zero-valued fields inherit the campaign's settings:
	// BudgetPercent from ThresholdPercent, and Ledger/Metrics from the
	// campaign's own.
	Replan *replan.Config
}

func (c Config) withDefaults() (Config, error) {
	if c.Sim == nil {
		return c, fmt.Errorf("campaign: needs a simulation")
	}
	if len(c.Kernels) == 0 {
		return c, fmt.Errorf("campaign: needs at least one analysis kernel")
	}
	if c.Steps <= 0 {
		return c, fmt.Errorf("campaign: needs Steps > 0")
	}
	if c.ThresholdPercent <= 0 {
		return c, fmt.Errorf("campaign: needs ThresholdPercent > 0")
	}
	if c.MinInterval <= 0 {
		c.MinInterval = 1
	}
	return c, nil
}

// Plan is the result of the profiling and solving phase.
type Plan struct {
	Specs         []core.AnalysisSpec
	Resources     core.Resources
	Rec           *core.Recommendation
	SimSecPerStep float64
}

// Outcome is the result of executing a plan.
type Outcome struct {
	Plan   *Plan
	Report *coupling.Report
	// WithinThreshold reports whether the executed analysis time stayed
	// inside the budget.
	WithinThreshold bool
	// Metrics is a snapshot of the campaign's metrics registry taken right
	// after execution (nil when the campaign is uninstrumented).
	Metrics []obs.Metric
	// Replans is the replan decision timeline (empty without Config.Replan).
	Replans []runmon.ReplanRecord
}

// Campaign drives one simulation-plus-analyses run.
type Campaign struct {
	cfg Config
}

// New validates the configuration.
func New(cfg Config) (*Campaign, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Campaign{cfg: c}, nil
}

// profile probes the simulation speed and measures every kernel against the
// live simulation.
func (c *Campaign) profile() (specs []core.AnalysisSpec, simPerStep float64, err error) {
	cfg := c.cfg

	// Probe the simulation speed.
	t0 := time.Now()
	probe := 5
	for i := 0; i < probe; i++ {
		cfg.Sim.Step()
	}
	simPerStep = time.Since(t0).Seconds() / float64(probe)

	// Profile kernels: each advances the simulation 4 steps and analyzes
	// every second one.
	for _, k := range cfg.Kernels {
		costs, err := analysis.Measure(k, cfg.Sim.Step)
		if err != nil {
			return nil, 0, fmt.Errorf("campaign: profiling %s: %w", k.Name(), err)
		}
		spec := coupling.SpecFromCosts(costs, cfg.MinInterval)
		if w, ok := cfg.Weights[spec.Name]; ok {
			spec.Weight = w
		}
		specs = append(specs, spec)
	}
	return specs, simPerStep, nil
}

// envelope derives the resource envelope from the configuration and the
// probed simulation speed.
func (c *Campaign) envelope(simPerStep float64) core.Resources {
	cfg := c.cfg
	mem := cfg.MemBudget
	if mem <= 0 {
		mem = machine.Laptop().MemPerNode - cfg.Sim.MemoryBytes()
		if mem < 1<<20 {
			mem = 1 << 20
		}
	}
	// The storage bandwidth supplies ot = om/bw for kernels that report only
	// their output volume.
	return core.Resources{
		Steps:         cfg.Steps,
		TimeThreshold: core.PercentThreshold(simPerStep, cfg.Steps, cfg.ThresholdPercent),
		MemThreshold:  mem,
		Bandwidth:     iosim.SustainedGPFS().BytesPerSec,
	}
}

// Plan profiles every kernel against the live simulation, derives the
// resource envelope, and solves for the optimal weighted schedule.
func (c *Campaign) Plan() (*Plan, error) {
	specs, simPerStep, err := c.profile()
	if err != nil {
		return nil, err
	}
	res := c.envelope(simPerStep)
	rec, err := core.Solve(specs, res, core.SolveOptions{})
	if err != nil {
		return nil, err
	}
	c.cfg.Ledger.Append(rec.SolveEvent("plan", res.TimeThreshold))
	return &Plan{Specs: specs, Resources: res, Rec: rec, SimSecPerStep: simPerStep}, nil
}

// Execute runs the plan's schedule against the simulation.
func (c *Campaign) Execute(p *Plan) (*Outcome, error) {
	byName := map[string]analysis.Kernel{}
	for _, k := range c.cfg.Kernels {
		byName[k.Name()] = k
	}
	runner := &coupling.Runner{
		Step:    c.cfg.Sim.Step,
		Kernels: byName,
		Rec:     p.Rec,
		Res:     p.Resources,
		Output:  c.cfg.Output,
		Trace:   c.cfg.Trace,
		Metrics: c.cfg.Metrics,
		Ledger:  c.cfg.Ledger,
		App:     c.cfg.Sim.Name(),
	}
	mon := c.cfg.Monitor
	if mon != nil || c.cfg.Replan != nil {
		// The solved plan is the monitor's prediction; write it into the
		// ledger too so a post-hoc `runmon report` scores against the same
		// profile the live monitor used. A replanning campaign needs the
		// monitor even when the caller did not attach one — the replanner
		// triggers off its alerts.
		profile := runmon.FromPlan(p.Specs, p.Rec, p.Resources, p.SimSecPerStep)
		profile.App = c.cfg.Sim.Name()
		if mon == nil {
			mon = runmon.NewMonitor(profile, runmon.Config{Ledger: c.cfg.Ledger, Metrics: c.cfg.Metrics})
		} else {
			mon.SetProfile(profile)
		}
		for _, e := range profile.PlanEvents() {
			c.cfg.Ledger.Append(e)
		}
		runner.Observe = mon.Observe
	}
	var rp *replan.Replanner
	if c.cfg.Replan != nil {
		rcfg := *c.cfg.Replan
		if rcfg.BudgetPercent <= 0 {
			rcfg.BudgetPercent = c.cfg.ThresholdPercent
		}
		if rcfg.Ledger == nil {
			rcfg.Ledger = c.cfg.Ledger
		}
		if rcfg.Metrics == nil {
			rcfg.Metrics = c.cfg.Metrics
		}
		rp = replan.New(mon, p.Specs, p.Resources, p.Rec, p.SimSecPerStep, rcfg)
		runner.Replan = rp.Hook()
	}
	rep, err := runner.Run()
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Plan:            p,
		Report:          rep,
		WithinThreshold: rep.AnalysisTime.Seconds() <= p.Resources.TimeThreshold,
		Replans:         rp.Records(),
	}
	if c.cfg.Metrics != nil {
		out.Metrics = c.cfg.Metrics.Snapshot()
	}
	return out, nil
}

// Run plans and executes in one call.
func (c *Campaign) Run() (*Outcome, error) {
	p, err := c.Plan()
	if err != nil {
		return nil, err
	}
	return c.Execute(p)
}

// AdoptedReplans counts the replan decisions that swapped the schedule.
func (o *Outcome) AdoptedReplans() int {
	n := 0
	for _, r := range o.Replans {
		if r.Adopted {
			n++
		}
	}
	return n
}

// Summary renders the §5-style report: the recommendation, then executed
// versus threshold.
func (o *Outcome) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan (sim %.4fs/step, threshold %.3fs, mem %d):\n",
		o.Plan.SimSecPerStep, o.Plan.Resources.TimeThreshold, o.Plan.Resources.MemThreshold)
	b.WriteString(o.Plan.Rec.String())
	fmt.Fprintf(&b, "executed: sim %v, analyses %v (%.1f%% of threshold), within=%v\n",
		o.Report.SimTime, o.Report.AnalysisTime,
		o.Report.Utilization(o.Plan.Resources)*100, o.WithinThreshold)
	if len(o.Replans) > 0 {
		fmt.Fprintf(&b, "replans: %d decision(s), %d adopted\n", len(o.Replans), o.AdoptedReplans())
	}
	for _, kr := range o.Report.Kernels {
		fmt.Fprintf(&b, "  %-26s analyses=%-4d outputs=%-4d total=%v\n",
			kr.Name, kr.Analyses, kr.Outputs, kr.Total())
	}
	if len(o.Metrics) > 0 {
		b.WriteString("metrics:\n")
		for _, m := range o.Metrics {
			label := ""
			if len(m.Labels) > 0 {
				var parts []string
				for k, v := range m.Labels {
					parts = append(parts, k+"="+v)
				}
				sort.Strings(parts)
				label = "{" + strings.Join(parts, ",") + "}"
			}
			switch m.Kind {
			case "histogram":
				fmt.Fprintf(&b, "  %s%s count=%d sum=%g\n", m.Name, label, m.Count, m.Value)
			default:
				fmt.Fprintf(&b, "  %s%s %g\n", m.Name, label, m.Value)
			}
		}
	}
	return b.String()
}
