package coupling

import (
	"fmt"
	"io"
	"sync"
	"time"

	"insitu/internal/analysis"
	"insitu/internal/core"
	"insitu/internal/obs"
)

// StagedAnalysis is an analysis executed in co-analysis mode: at each
// scheduled step, Capture snapshots whatever simulation state the analysis
// needs (the "transfer" — its cost is charged to the simulation site, which
// blocks while its memory is shipped) and returns a closure that performs
// the analysis offline on staging resources, detached from the live
// simulation.
type StagedAnalysis struct {
	Name string
	// Capture snapshots the state for the given step. The returned closure
	// runs on a staging worker; the returned byte count is the modeled
	// transfer volume.
	Capture func(step int) (func() error, int64, error)
}

// PlacementRunner executes a placement recommendation: in-situ analyses run
// inline in the simulation loop exactly like Runner; co-analysis analyses
// block the simulation only for Capture and then proceed concurrently on
// staging workers — the loosely-coupled mode of §1/§2.1.
type PlacementRunner struct {
	Step    func()
	InSitu  map[string]analysis.Kernel
	Staged  map[string]StagedAnalysis
	Rec     *core.PlacementRecommendation
	Res     core.PlacementResources
	Workers int // staging workers (default 2)
	// Trace, when non-nil, records the run as a timeline: the simulation
	// loop on track 0 (step, in-situ kernel, and capture/transfer spans)
	// and each staging worker on track 1+w.
	Trace *obs.Tracer
	// Metrics, when non-nil, receives run counters and transfer volumes.
	Metrics *obs.Registry
}

// PlacementReport is the outcome of a placed run.
type PlacementReport struct {
	Steps       int
	SimTime     time.Duration // simulation compute only
	SimSiteTime time.Duration // in-situ analysis + capture time at the simulation site
	StageTime   time.Duration // total compute on staging workers
	StageWall   time.Duration // from the earliest staged job's start to the latest one's end
	InSituRuns  map[string]int
	StagedRuns  map[string]int
	Transferred int64
}

// Run executes the placement schedule over Res.Steps steps.
func (r *PlacementRunner) Run() (*PlacementReport, error) {
	if r.Step == nil {
		return nil, fmt.Errorf("coupling: placement runner needs a Step function")
	}
	if r.Rec == nil {
		return nil, fmt.Errorf("coupling: placement runner needs a recommendation")
	}
	workers := r.Workers
	if workers <= 0 {
		workers = 2
	}
	sw := startStopwatch()

	rep := &PlacementReport{
		Steps:      r.Res.Steps,
		InSituRuns: map[string]int{},
		StagedRuns: map[string]int{},
	}

	// Span names are built once per schedule rather than once per event.
	type inSituActive struct {
		kernel                  analysis.Kernel
		isA, isO                core.StepCursor
		name                    string
		analyzeSpan, outputSpan string
	}
	type stagedActive struct {
		sa                      StagedAnalysis
		isA                     core.StepCursor
		captureSpan, stagedSpan string
	}
	var inSitu []inSituActive
	var staged []stagedActive
	for _, s := range r.Rec.Schedules {
		if !s.Enabled {
			continue
		}
		switch s.Site {
		case core.InSitu:
			k, ok := r.InSitu[s.Name]
			if !ok {
				return nil, fmt.Errorf("coupling: no in-situ kernel for %q", s.Name)
			}
			t0 := sw.now()
			if _, err := k.Setup(); err != nil {
				return nil, fmt.Errorf("coupling: setup %s: %w", s.Name, err)
			}
			rep.SimSiteTime += sw.now().Sub(t0)
			inSitu = append(inSitu, inSituActive{
				kernel:      k,
				isA:         stepCursor(s.AnalysisSteps),
				isO:         stepCursor(s.OutputSteps),
				name:        s.Name,
				analyzeSpan: s.Name + "/analyze",
				outputSpan:  s.Name + "/output",
			})
		case core.CoAnalysis:
			sa, ok := r.Staged[s.Name]
			if !ok {
				return nil, fmt.Errorf("coupling: no staged analysis for %q", s.Name)
			}
			staged = append(staged, stagedActive{
				sa:          sa,
				isA:         stepCursor(s.AnalysisSteps),
				captureSpan: sa.Name + "/capture",
				stagedSpan:  sa.Name + "/staged",
			})
		}
	}

	// Staging worker pool.
	type job struct {
		name, span string
		fn         func() error
	}
	jobs := make(chan job, workers*2)
	errCh := make(chan error, workers)
	mStagedRuns := r.Metrics.Counter("placement_staged_runs_total", nil)
	var wg sync.WaitGroup
	var stageMu sync.Mutex
	var firstStart, lastEnd time.Time // the staged jobs' extremes, under stageMu
	r.Trace.SetTrackName(0, "simulation")
	for w := 0; w < workers; w++ {
		r.Trace.SetTrackName(1+w, fmt.Sprintf("staging-%d", w))
		wg.Add(1)
		go func(track int) {
			defer wg.Done()
			for j := range jobs {
				// As in Runner.Run, the readings that time the job are its
				// span's start and end, and the span is recorded after both.
				t0 := sw.now()
				err := j.fn()
				t1 := sw.now()
				r.Trace.BeginAt(t0, track, j.span, "staged").EndAt(t1)
				mStagedRuns.Inc()
				stageMu.Lock()
				rep.StageTime += t1.Sub(t0)
				if firstStart.IsZero() || t0.Before(firstStart) {
					firstStart = t0
				}
				if t1.After(lastEnd) {
					lastEnd = t1
				}
				rep.StagedRuns[j.name]++
				stageMu.Unlock()
				if err != nil {
					select {
					case errCh <- fmt.Errorf("coupling: staged %s: %w", j.name, err):
					default:
					}
				}
			}
		}(1 + w)
	}

	fail := func(err error) (*PlacementReport, error) {
		close(jobs)
		wg.Wait()
		return nil, err
	}

	mSteps := r.Metrics.Counter("placement_steps_total", nil)
	mInSituRuns := r.Metrics.Counter("placement_insitu_runs_total", nil)
	mTransfer := r.Metrics.Counter("placement_transfer_bytes_total", nil)
	// As in Runner.Run, a step is measured first, its regions back to back,
	// and published after: regions[0] is the advance, then each in-situ
	// analysis and output and each capture.
	regions := make([]region, 0, 1+2*len(inSitu)+len(staged))
	publish := func(step int) obs.Span {
		stepArg := float64(step)
		adv := regions[0]
		stepSpan := r.Trace.BeginAt(adv.start, 0, "step", "sim").Arg("step", stepArg)
		rep.SimTime += adv.end.Sub(adv.start)
		mSteps.Inc()
		for _, g := range regions[1:] {
			switch g.kind {
			case regionAnalysis:
				a := &inSitu[g.k]
				r.Trace.BeginAt(g.start, 0, a.analyzeSpan, "kernel").Arg("step", stepArg).EndAt(g.end)
				rep.InSituRuns[a.name]++
				mInSituRuns.Inc()
			case regionOutput:
				r.Trace.BeginAt(g.start, 0, inSitu[g.k].outputSpan, "output").Arg("step", stepArg).EndAt(g.end)
			case regionCapture:
				r.Trace.BeginAt(g.start, 0, staged[g.k].captureSpan, "transfer").
					Arg("step", stepArg).Arg("bytes", float64(g.bytes)).EndAt(g.end)
				mTransfer.Add(float64(g.bytes))
			}
		}
		return stepSpan
	}
	for step := 1; step <= r.Res.Steps; step++ {
		start := sw.now()
		r.Step()
		at := sw.now()
		regions = append(regions[:0], region{kind: regionAdvance, start: start, end: at})
		siteStart := at
		var failed error
		for i := range inSitu {
			a := &inSitu[i] // the cursors advance in place
			analyze, output := a.isA.At(step), a.isO.At(step)
			if _, failed = a.kernel.PreStep(step); failed != nil {
				break
			}
			at = sw.now()
			if analyze {
				if _, failed = a.kernel.Analyze(step); failed != nil {
					break
				}
				end := sw.now()
				regions = append(regions, region{kind: regionAnalysis, k: i, start: at, end: end})
				at = end
			}
			if output {
				if _, failed = a.kernel.Output(io.Discard); failed != nil {
					break
				}
				end := sw.now()
				regions = append(regions, region{kind: regionOutput, k: i, start: at, end: end})
				at = end
			}
		}
		rep.SimSiteTime += at.Sub(siteStart)
		for i := 0; i < len(staged) && failed == nil; i++ {
			s := &staged[i]
			if !s.isA.At(step) {
				continue
			}
			fn, bytes, err := s.sa.Capture(step)
			if err != nil {
				failed = fmt.Errorf("coupling: capture %s at %d: %w", s.sa.Name, step, err)
				break
			}
			end := sw.now()
			regions = append(regions, region{kind: regionCapture, k: i, start: at, end: end, bytes: bytes})
			rep.SimSiteTime += end.Sub(at) // only the transfer blocks the simulation
			rep.Transferred += bytes
			jobs <- job{name: s.sa.Name, span: s.stagedSpan, fn: fn}
			at = sw.now() // waiting for room in the staging queue is not transfer time
		}
		publish(step).EndAt(sw.now())
		if failed != nil {
			return fail(failed)
		}
		select {
		case err := <-errCh:
			return fail(err)
		default:
		}
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	if !firstStart.IsZero() {
		rep.StageWall = lastEnd.Sub(firstStart)
	}
	return rep, nil
}
