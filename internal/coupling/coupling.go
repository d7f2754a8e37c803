// Package coupling executes a recommended in-situ schedule against a live
// simulation: the Figure-1 loop in which simulation steps alternate with
// analysis steps and analysis-output steps at the frequencies the optimizer
// chose. The runner measures the actual time spent in each phase, which is
// how the paper verifies that executed schedules land within the threshold
// (the "% within threshold" columns of Tables 5 and 6).
package coupling

import (
	"fmt"
	"io"
	"sort"
	"time"

	"insitu/internal/analysis"
	"insitu/internal/core"
	"insitu/internal/obs"
)

// Runner couples one simulation with a set of kernels under a schedule.
type Runner struct {
	// Step advances the simulation one time step.
	Step func()
	// Kernels maps schedule names to kernel implementations.
	Kernels map[string]analysis.Kernel
	// Rec is the schedule to execute.
	Rec *core.Recommendation
	// Res is the envelope the schedule was solved against.
	Res core.Resources
	// Output receives analysis output; defaults to io.Discard.
	Output io.Writer
	// Trace, when non-nil, records the run as a timeline: one span per
	// simulation step (category "sim") containing one span per kernel
	// invocation (category "kernel") and output flush (category "output").
	Trace *obs.Tracer
	// Metrics, when non-nil, receives step counters, per-kernel analysis
	// and output counters, and a step-duration histogram.
	Metrics *obs.Registry
	// Ledger, when non-nil, receives the run as schema-versioned JSONL
	// events: run_start/run_end around the run, one step event per
	// simulation step, and one analysis/output event per kernel invocation
	// (with duration and output bytes). See obs.EventLog.
	Ledger *obs.EventLog
	// Observe, when non-nil, receives a copy of every ledger-style event
	// the run emits, whether or not a Ledger is attached. This is the live
	// monitoring hook: point it at a runmon.Monitor's Observe method and
	// drift is scored as the run happens rather than post-hoc.
	Observe func(obs.LedgerEvent)
	// Replan, when non-nil, is consulted at the end of every simulation
	// step, after the step's events have been emitted. A non-nil return
	// swaps the running schedule from the next step on: kernels newly
	// enabled are Setup() at the swap (their setup time joins the analysis
	// budget), kernels dropped stop being invoked but keep their report.
	// This is the drift-adaptive hook: point it at a
	// replan.Replanner.Hook() and the run follows adopted reschedules.
	Replan func(step int) *core.Recommendation
	// App names the application on the ledger's run_start event.
	App string
}

// stopwatch is the one clock of a run. It reads the wall clock once, at the
// origin; every later reading is the origin plus the monotonic time elapsed
// since it — one monotonic clock read, where a fresh wall-clock reading makes
// two. A reading keeps its monotonic component, so a difference of two
// readings and a sink's offset of a reading from its own epoch (both Sub) are
// computed from the monotonic clock exactly as for fresh readings; only the
// wall component, which no sink reads, can differ. A stopwatch is a value,
// safe to read from any goroutine.
type stopwatch struct{ origin time.Time }

func startStopwatch() stopwatch { return stopwatch{origin: time.Now()} }

func (s stopwatch) now() time.Time { return s.origin.Add(time.Since(s.origin)) }

// regionKind says what a measured region of a step ran.
type regionKind uint8

const (
	regionAdvance regionKind = iota
	regionAnalysis
	regionOutput
)

// region is one timed part of a step. A step is measured first — its regions
// run back to back, the reading that closes one opening the next — and
// published after, so no span, counter or ledger event lands inside a region.
type region struct {
	kind       regionKind
	k          int // index of the kernel in the active set
	start, end time.Time
	bytes      int64
}

// emit routes one event to the ledger (if any) and the Observe hook (if any).
// at is the stopwatch reading the ledger stamps the event with: the one that
// closed the region the event reports.
func (r *Runner) emit(at time.Time, e obs.LedgerEvent) {
	r.Ledger.AppendAt(at, e)
	if r.Observe != nil {
		r.Observe(e)
	}
}

// ledgerMicros converts a measured duration to ledger microseconds.
func ledgerMicros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// stepCursor returns a membership cursor over a schedule's step list. The
// solver's lists are ascending; a hand-built plan's may not be, and is then
// sorted in a copy.
func stepCursor(steps []int) core.StepCursor {
	if !sort.IntsAreSorted(steps) {
		steps = append([]int(nil), steps...)
		sort.Ints(steps)
	}
	return core.StepCursor{Steps: steps}
}

// KernelReport summarizes one kernel's execution.
type KernelReport struct {
	Name      string
	Analyses  int
	Outputs   int
	SetupTime time.Duration
	// PreTime is the total facilitation time across all steps: in each step,
	// from the reading that closed the region before the kernel's (the
	// advance, or the previous kernel's last) to the one taken when PreStep
	// returns. Beyond PreStep it holds only loop bookkeeping — the kernel's
	// schedule cursor checks and the previous region's record — and no
	// telemetry.
	PreTime    time.Duration
	Analyze    time.Duration // total analysis compute time
	OutputTime time.Duration
	OutBytes   int64
}

// Total returns the kernel's full contribution to the analysis budget.
func (k KernelReport) Total() time.Duration {
	return k.SetupTime + k.PreTime + k.Analyze + k.OutputTime
}

// Report is the outcome of a coupled run.
type Report struct {
	Steps        int
	SimTime      time.Duration
	AnalysisTime time.Duration
	Kernels      []KernelReport
}

// Utilization returns the executed analysis time as a fraction of the
// threshold (>1 means the schedule overshot).
func (r *Report) Utilization(res core.Resources) float64 {
	if res.TimeThreshold <= 0 {
		return 0
	}
	return r.AnalysisTime.Seconds() / res.TimeThreshold
}

// Kernel returns the report for the named kernel, or nil.
func (r *Report) Kernel(name string) *KernelReport {
	for i := range r.Kernels {
		if r.Kernels[i].Name == name {
			return &r.Kernels[i]
		}
	}
	return nil
}

// Run executes the schedule over Res.Steps simulation steps.
func (r *Runner) Run() (*Report, error) {
	if r.Step == nil {
		return nil, fmt.Errorf("coupling: runner needs a Step function")
	}
	if r.Rec == nil {
		return nil, fmt.Errorf("coupling: runner needs a recommendation")
	}
	out := r.Output
	if out == nil {
		out = io.Discard
	}
	sw := startStopwatch()
	r.Trace.SetTrackName(0, "sim+analysis")

	type active struct {
		kernel   analysis.Kernel
		isA, isO core.StepCursor
		report   *KernelReport
		// Span names, built once per schedule rather than once per event.
		analyzeSpan, outputSpan string
		// Telemetry handles, resolved once so the loop stays cheap; all
		// are nil-safe no-ops when Metrics is nil.
		mAnalyses *obs.Counter
		mOutputs  *obs.Counter
		mOutBytes *obs.Counter
	}
	mSteps := r.Metrics.Counter("coupling_steps_total", nil)
	mStepDur := r.Metrics.Histogram("coupling_step_seconds", nil, nil)
	rep := &Report{Steps: r.Res.Steps}
	// Kernel reports are allocated individually and keyed by name so a
	// mid-run replan can enable a kernel the up-front schedule left out (or
	// re-enable one it dropped) without invalidating accumulated totals;
	// rep.Kernels is assembled from them, in first-enabled order, at the end.
	reports := map[string]*KernelReport{}
	var reportOrder []string
	report := func(name string) *KernelReport {
		if kr, ok := reports[name]; ok {
			return kr
		}
		kr := &KernelReport{Name: name}
		reports[name] = kr
		reportOrder = append(reportOrder, name)
		return kr
	}
	// buildActive resolves a schedule into the per-step execution set,
	// running Setup (timed into the budget) for kernels on their first
	// enable only — a replan that keeps a kernel running must not re-pay it.
	setup := map[string]bool{}
	buildActive := func(rec *core.Recommendation) ([]active, error) {
		var run []active
		for _, s := range rec.Schedules {
			if !s.Enabled {
				continue
			}
			k, ok := r.Kernels[s.Name]
			if !ok {
				return nil, fmt.Errorf("coupling: no kernel registered for analysis %q", s.Name)
			}
			kr := report(s.Name)
			if !setup[s.Name] {
				setup[s.Name] = true
				t0 := sw.now()
				if _, err := k.Setup(); err != nil {
					return nil, fmt.Errorf("coupling: setup %s: %w", s.Name, err)
				}
				t1 := sw.now()
				kr.SetupTime = t1.Sub(t0)
				r.Trace.BeginAt(t0, 0, s.Name+"/setup", "kernel").EndAt(t1)
			}
			labels := obs.Labels{"kernel": s.Name}
			run = append(run, active{
				kernel:      k,
				isA:         stepCursor(s.AnalysisSteps),
				isO:         stepCursor(s.OutputSteps),
				report:      kr,
				analyzeSpan: s.Name + "/analyze",
				outputSpan:  s.Name + "/output",
				mAnalyses:   r.Metrics.Counter("coupling_analyses_total", labels),
				mOutputs:    r.Metrics.Counter("coupling_outputs_total", labels),
				mOutBytes:   r.Metrics.Counter("coupling_output_bytes_total", labels),
			})
		}
		return run, nil
	}
	run, err := buildActive(r.Rec)
	if err != nil {
		return nil, err
	}

	// regions holds one step's measurements until they are published: the
	// advance, then at most an analysis and an output per kernel.
	regions := make([]region, 0, 1+2*len(run))

	// publish reports the measured step in the order it ran — the step span
	// (opened at the advance's start), the advance, then each analysis and
	// output — stamping every span and ledger event with the readings that
	// bounded its region, and returns the step span, still open.
	publish := func(step int) obs.Span {
		stepArg := float64(step)
		adv := regions[0]
		stepSpan := r.Trace.BeginAt(adv.start, 0, "step", "sim").Arg("step", stepArg)
		dt := adv.end.Sub(adv.start)
		r.Trace.BeginAt(adv.start, 0, "advance", "sim").EndAt(adv.end)
		rep.SimTime += dt
		mSteps.Inc()
		mStepDur.Observe(dt.Seconds())
		r.emit(adv.end, obs.LedgerEvent{Type: obs.LedgerStep, Step: step, Dur: ledgerMicros(dt)})
		for _, g := range regions[1:] {
			a := &run[g.k]
			d := g.end.Sub(g.start)
			if g.kind == regionAnalysis {
				a.report.Analyze += d
				a.report.Analyses++
				r.Trace.BeginAt(g.start, 0, a.analyzeSpan, "kernel").Arg("step", stepArg).EndAt(g.end)
				a.mAnalyses.Inc()
				r.emit(g.end, obs.LedgerEvent{Type: obs.LedgerAnalysis, Name: a.report.Name, Step: step, Dur: ledgerMicros(d)})
				continue
			}
			a.report.OutputTime += d
			a.report.OutBytes += g.bytes
			a.report.Outputs++
			r.Trace.BeginAt(g.start, 0, a.outputSpan, "output").Arg("step", stepArg).EndAt(g.end)
			a.mOutputs.Inc()
			a.mOutBytes.Add(float64(g.bytes))
			r.emit(g.end, obs.LedgerEvent{
				Type: obs.LedgerOutput, Name: a.report.Name, Step: step,
				Dur: ledgerMicros(d), Bytes: g.bytes,
			})
		}
		return stepSpan
	}

	r.emit(sw.now(), obs.LedgerEvent{Type: obs.LedgerRunStart, Name: r.App, Args: map[string]float64{
		"steps": float64(r.Res.Steps), "kernels": float64(len(run)),
	}})
	for step := 1; step <= r.Res.Steps; step++ {
		// One reading per boundary: at is the reading that closed the last
		// region and opens the next.
		start := sw.now()
		r.Step()
		at := sw.now()
		regions = append(regions[:0], region{kind: regionAdvance, start: start, end: at})
		var failed error
		for i := range run {
			a := &run[i] // the cursors advance in place
			analyze, output := a.isA.At(step), a.isO.At(step)
			if _, err := a.kernel.PreStep(step); err != nil {
				failed = fmt.Errorf("coupling: prestep %s at %d: %w", a.report.Name, step, err)
				break
			}
			end := sw.now()
			a.report.PreTime += end.Sub(at)
			at = end
			if analyze {
				if _, err := a.kernel.Analyze(step); err != nil {
					failed = fmt.Errorf("coupling: analyze %s at %d: %w", a.report.Name, step, err)
					break
				}
				end := sw.now()
				regions = append(regions, region{kind: regionAnalysis, k: i, start: at, end: end})
				at = end
			}
			if output {
				n, err := a.kernel.Output(out)
				if err != nil {
					failed = fmt.Errorf("coupling: output %s at %d: %w", a.report.Name, step, err)
					break
				}
				end := sw.now()
				regions = append(regions, region{kind: regionOutput, k: i, start: at, end: end, bytes: n})
				at = end
			}
		}
		stepSpan := publish(step)
		if failed == nil && r.Replan != nil {
			if next := r.Replan(step); next != nil {
				run, failed = buildActive(next)
				if need := 1 + 2*len(run); cap(regions) < need {
					regions = make([]region, 0, need)
				}
			}
		}
		stepSpan.EndAt(sw.now())
		if failed != nil {
			return nil, failed
		}
	}
	for _, name := range reportOrder {
		rep.Kernels = append(rep.Kernels, *reports[name])
	}
	for i := range rep.Kernels {
		rep.AnalysisTime += rep.Kernels[i].Total()
	}
	r.emit(sw.now(), obs.LedgerEvent{Type: obs.LedgerRunEnd, Args: map[string]float64{
		"sim_seconds":      rep.SimTime.Seconds(),
		"analysis_seconds": rep.AnalysisTime.Seconds(),
	}})
	return rep, nil
}

// SpecFromCosts converts measured kernel costs into a scheduling spec,
// wiring the measured phases onto the Table-1 parameters. Weight defaults to
// 1; MinInterval must be supplied by the caller (it is a science choice, not
// a measurement).
func SpecFromCosts(c analysis.Costs, minInterval int) core.AnalysisSpec {
	return core.AnalysisSpec{
		Name:        c.Kernel,
		FT:          c.FT.Seconds(),
		IT:          c.IT.Seconds(),
		CT:          c.CT.Seconds(),
		OT:          c.OT.Seconds(),
		FM:          c.FM,
		IM:          c.IM,
		CM:          c.CM,
		OM:          c.OM,
		MinInterval: minInterval,
	}
}
