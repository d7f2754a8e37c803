package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"insitu/internal/lp"
)

// expandSteps returns the concrete 1-based simulation steps of an analysis
// performed count times over steps steps, evenly spread at the widest
// spacing the count allows. With count <= steps/itv the spacing is >= itv,
// so the minimum-interval constraint holds by construction. The a-th
// analysis lands at floor((a+1)·steps/count), so the last one is at `steps`.
func expandSteps(steps, count int) []int {
	if count <= 0 {
		return nil
	}
	out := make([]int, count)
	for a := 0; a < count; a++ {
		out[a] = (a + 1) * steps / count
	}
	return out
}

// expandOutputs returns the output steps: every k-th analysis step, plus the
// final analysis step so buffered results always reach storage (the paper's
// O ⊆ C with |O| = ceil(|C|/k)).
func expandOutputs(analysisSteps []int, k int) []int {
	if k <= 0 || len(analysisSteps) == 0 {
		return nil
	}
	var out []int
	for idx := k - 1; idx < len(analysisSteps); idx += k {
		out = append(out, analysisSteps[idx])
	}
	if len(out) == 0 || out[len(out)-1] != analysisSteps[len(analysisSteps)-1] {
		out = append(out, analysisSteps[len(analysisSteps)-1])
	}
	return out
}

// modeCost returns the exact total time of an analysis run `count` times
// with `outputs` output steps: ft + it·Steps + ct·count + ot·outputs
// (equations 2–3 summed over the run).
func modeCost(a AnalysisSpec, res Resources, count, outputs int) float64 {
	return a.runTime(res).cost(count, outputs)
}

// runTime is what an analysis' time costs over a run whatever its mode —
// fixed = ft + it·Steps — and per analysis and output step, so that mode
// enumeration works it out once per analysis instead of once per candidate.
type runTime struct{ fixed, ct, ot float64 }

func (a *AnalysisSpec) runTime(res Resources) runTime {
	return runTime{a.FT + a.IT*float64(res.Steps), a.CT, a.outputTime(res.Bandwidth)}
}

// cost is modeCost: the same sum, added left to right, bit for bit.
func (t runTime) cost(count, outputs int) float64 {
	return t.fixed + t.ct*float64(count) + t.ot*float64(outputs)
}

// stepEvents merges an analysis' ascending analysis-step and output-step
// lists into the ascending sequence of distinct steps listed in either —
// the only steps where the memory recurrence is not a straight line.
type stepEvents struct {
	analysis, output []int
	ai, oi           int
}

// next returns the next event step and which lists name it, or ok == false
// once both lists are spent. Repeated entries collapse into one event.
func (ev *stepEvents) next() (e int, isA, isO, ok bool) {
	as, os := ev.analysis, ev.output
	switch {
	case ev.ai >= len(as) && ev.oi >= len(os):
		return 0, false, false, false
	case ev.ai >= len(as):
		e = os[ev.oi]
	case ev.oi >= len(os):
		e = as[ev.ai]
	case as[ev.ai] < os[ev.oi]:
		e = as[ev.ai]
	default:
		e = os[ev.oi]
	}
	for ; ev.ai < len(as) && as[ev.ai] == e; ev.ai++ {
		isA = true
	}
	for ; ev.oi < len(os) && os[ev.oi] == e; ev.oi++ {
		isO = true
	}
	return e, isA, isO, true
}

// modePeakMemory returns the maximum mStart of equations 5–7: fixed fm plus
// im accumulating every step, cm added at analysis steps, om at output steps,
// with a reset to fm after each output. Between events memory changes
// linearly by im per step, so instead of walking all `steps` steps it jumps
// between the (sorted) analysis/output steps and evaluates each linear
// stretch at whichever end im makes extremal — O(|C|+|O|) per mode, which is
// what mode enumeration pays per candidate. Duplicate entries in either list
// collapse, matching the set semantics of the original per-step walk.
func modePeakMemory(a AnalysisSpec, steps int, analysisSteps, outputSteps []int) int64 {
	mEnd := a.FM
	peak := a.FM
	prev := 0 // step whose end-of-step memory mEnd currently holds
	// stretch folds in the peak of the gap event-free steps after prev.
	stretch := func(gap int64) {
		if gap <= 0 {
			return
		}
		if a.IM > 0 {
			if v := mEnd + a.IM*gap; v > peak {
				peak = v
			}
		} else if v := mEnd + a.IM; v > peak {
			peak = v
		}
	}
	ev := stepEvents{analysis: analysisSteps, output: outputSteps}
	for {
		e, isA, isO, ok := ev.next()
		if !ok || e > steps {
			break
		}
		if e < 1 {
			continue // steps outside [1, steps] are never executed
		}
		gap := int64(e - 1 - prev) // events are distinct and ascending: never negative
		stretch(gap)
		mEnd += a.IM * gap
		mStart := mEnd + a.IM
		if isA {
			mStart += a.CM
		}
		if isO {
			mStart += a.OM
		}
		if mStart > peak {
			peak = mStart
		}
		if isO {
			mEnd = a.FM
		} else {
			mEnd = mStart
		}
		prev = e
	}
	stretch(int64(steps - prev))
	return peak
}

// modeOutputsPeak prices a (count, k) mode by arithmetic: the number of
// outputs and the peak memory that expandSteps, expandOutputs and
// modePeakMemory would report, with no step list built. Analysis e (1-based)
// lands on step e·steps/count and an output follows every k-th analysis and
// the last. Validate admits only im, cm, om >= 0, so memory only rises between
// two outputs and the peak of equations 5–7 is fm + im·(steps) + cm·(analyses)
// + om at the end of the output-to-output segment where that is largest —
// O(outputs) per candidate, which is what mode enumeration pays. With k = 0
// nothing resets and the last step is the peak. Requires count <= steps.
func modeOutputsPeak(a *AnalysisSpec, steps, count, k int) (outputs int, peak int64) {
	if k <= 0 {
		return 0, a.FM + a.IM*int64(steps) + a.CM*int64(count)
	}
	var rise int64 // largest im·steps + cm·analyses over the segments
	prev, prevStep := 0, 0
	for e := k; prev < count; e += k {
		if e > count {
			e = count // the last segment may be short
		}
		step := e * steps / count
		if v := a.IM*int64(step-prevStep) + a.CM*int64(e-prev); v > rise {
			rise = v
		}
		prev, prevStep = e, step
		outputs++
	}
	return outputs, a.FM + rise + a.OM
}

// StepCursor answers "is step j listed?" for j asked in ascending order over
// an ascending step list, advancing past smaller (and repeated) entries.
type StepCursor struct {
	Steps []int
	i     int
}

// At reports whether step j is listed; j must not decrease between calls.
func (c *StepCursor) At(j int) bool {
	for c.i < len(c.Steps) && c.Steps[c.i] < j {
		c.i++
	}
	return c.i < len(c.Steps) && c.Steps[c.i] == j
}

// addStepMemory adds one analysis' mStart_j of the memory recurrence
// (equations 5–7) to mem[j] for every step j = 1..len(mem)-1: im accumulates
// each step, cm and om are added at analysis and output steps, and an output
// resets the carried memory to fm. Both step lists must be ascending. Like
// modePeakMemory it jumps from event to event; the steps in between are one
// straight line, filled without a test per step.
func addStepMemory(mem []int64, a AnalysisSpec, analysisSteps, outputSteps []int) {
	// line adds the event-free steps seg, which follow a step ending at
	// mEnd, and returns the memory the last of them ends at.
	line := func(seg []int64, mEnd int64) int64 {
		for k := range seg {
			mEnd += a.IM
			seg[k] += mEnd
		}
		return mEnd
	}
	mEnd := a.FM
	prev := 0 // step whose end-of-step memory mEnd holds
	ev := stepEvents{analysis: analysisSteps, output: outputSteps}
	for {
		e, isA, isO, ok := ev.next()
		if !ok || e >= len(mem) {
			break
		}
		if e < 1 {
			continue // steps outside [1, len(mem)) are never executed
		}
		mStart := line(mem[prev+1:e], mEnd) + a.IM
		if isA {
			mStart += a.CM
		}
		if isO {
			mStart += a.OM
			mEnd = a.FM
		} else {
			mEnd = mStart
		}
		mem[e] += mStart
		prev = e
	}
	line(mem[prev+1:], mEnd)
}

// buildSchedule materializes an AnalysisSchedule for spec a performed count
// times with output every k analysis steps.
func buildSchedule(a AnalysisSpec, res Resources, count, k int) AnalysisSchedule {
	if count <= 0 {
		return AnalysisSchedule{Name: a.Name}
	}
	as := expandSteps(res.Steps, count)
	os := expandOutputs(as, k)
	return AnalysisSchedule{
		Name:          a.Name,
		Enabled:       true,
		Count:         count,
		OutputEvery:   k,
		Outputs:       len(os),
		AnalysisSteps: as,
		OutputSteps:   os,
		PredictedTime: modeCost(a, res, count, len(os)),
		PeakMemory:    modePeakMemory(a, res.Steps, as, os),
	}
}

// Validate re-checks a recommendation against the raw constraint recurrences
// (equations 2–9) for the given specs and resources, returning a descriptive
// error on any violation. It is the oracle the tests use; every scheduler
// runs the same checks, through validated, before returning.
func (r *Recommendation) Validate(specs []AnalysisSpec, res Resources) error {
	_, err := r.check(specs, res)
	return err
}

// validated is the tail every scheduler ends on: one pass checks the
// recommendation and yields its exact peak memory, which it records.
func (r *Recommendation) validated(model string, specs []AnalysisSpec, res Resources) (*Recommendation, error) {
	var err error
	if r.PeakMemory, err = r.check(specs, res); err != nil {
		return nil, fmt.Errorf("core: %s solution failed validation: %w", model, err)
	}
	return r, nil
}

// stepMemPool holds check's per-step memory arrays between validations.
var stepMemPool = sync.Pool{New: func() any { return new([]int64) }}

// check is Validate, also returning max_j Σ_i mStart_{i,j} (equation 8's
// left-hand side), which its per-step memory sweep computes anyway. A
// threshold violation still reports the peak; a structural error, which ends
// the pass early, reports 0.
func (r *Recommendation) check(specs []AnalysisSpec, res Resources) (peak int64, err error) {
	if err := res.Validate(); err != nil {
		return 0, err
	}
	byName := map[string]AnalysisSpec{}
	for _, a := range specs {
		byName[a.Name] = a.withDefaults()
	}

	totalTime := 0.0
	buf := stepMemPool.Get().(*[]int64)
	memPerStep := lp.Resize(*buf, res.Steps+1)
	defer func() {
		*buf = memPerStep
		stepMemPool.Put(buf)
	}()
	for _, s := range r.Schedules {
		if !s.Enabled {
			if s.Count != 0 || len(s.AnalysisSteps) != 0 {
				return 0, fmt.Errorf("core: disabled analysis %q has scheduled steps", s.Name)
			}
			continue
		}
		a, ok := byName[s.Name]
		if !ok {
			return 0, fmt.Errorf("core: schedule for unknown analysis %q", s.Name)
		}
		if len(s.AnalysisSteps) != s.Count {
			return 0, fmt.Errorf("core: %q count %d does not match %d scheduled steps", s.Name, s.Count, len(s.AnalysisSteps))
		}
		// Interval constraint (equation 9 plus the running-total rule: the
		// first analysis may not occur before itv steps have elapsed).
		prev := 0
		for _, j := range s.AnalysisSteps {
			if j < 1 || j > res.Steps {
				return 0, fmt.Errorf("core: %q analysis step %d outside [1,%d]", s.Name, j, res.Steps)
			}
			if j-prev < a.MinInterval {
				return 0, fmt.Errorf("core: %q violates min interval %d between steps %d and %d", s.Name, a.MinInterval, prev, j)
			}
			prev = j
		}
		// Outputs must be a subset of analysis steps (ascending, just checked).
		outs := s.OutputSteps
		if !sort.IntsAreSorted(outs) {
			outs = append([]int(nil), outs...)
			sort.Ints(outs)
		}
		isA := StepCursor{Steps: s.AnalysisSteps}
		for _, j := range outs {
			if !isA.At(j) {
				return 0, fmt.Errorf("core: %q outputs at step %d without an analysis", s.Name, j)
			}
		}

		// Time recurrence (equations 2–4).
		totalTime += a.runTime(res).cost(len(s.AnalysisSteps), len(s.OutputSteps))

		// Memory recurrence (equations 5–7) accumulated per step.
		addStepMemory(memPerStep, a, s.AnalysisSteps, outs)
	}

	for j := 1; j <= res.Steps; j++ {
		if memPerStep[j] > peak {
			peak = memPerStep[j]
		}
	}
	if res.TimeThreshold > 0 && totalTime > res.TimeThreshold*(1+1e-9)+1e-12 {
		return peak, fmt.Errorf("core: total analysis time %.6f exceeds threshold %.6f", totalTime, res.TimeThreshold)
	}
	if res.MemThreshold > 0 && peak > res.MemThreshold {
		j := 1 // the first step over the threshold; the peak's step is one
		for memPerStep[j] <= res.MemThreshold {
			j++
		}
		return peak, fmt.Errorf("core: memory %d at step %d exceeds threshold %d", memPerStep[j], j, res.MemThreshold)
	}
	return peak, nil
}

// CouplingString renders the Figure-1 style coupling string for a single
// analysis schedule over the run: "S" per simulation step, with "A" appended
// at analysis steps, "Oa" at analysis-output steps, and "Os" at simulation
// output steps (every simOutputEvery steps; 0 disables simulation output).
func CouplingString(res Resources, s AnalysisSchedule, simOutputEvery int) string {
	isA, isO := StepCursor{Steps: s.AnalysisSteps}, StepCursor{Steps: s.OutputSteps}
	var b strings.Builder
	for j := 1; j <= res.Steps; j++ {
		b.WriteString("S")
		if isA.At(j) {
			b.WriteString("A")
		}
		if isO.At(j) {
			b.WriteString("Oa")
		}
		if simOutputEvery > 0 && j%simOutputEvery == 0 {
			b.WriteString("Os")
		}
	}
	return b.String()
}

// GanttString renders all enabled schedules as aligned timeline rows, one
// character per simulation step: '.' simulation only, 'A' analysis, 'O'
// analysis+output. Wide runs are compressed by sampling when Steps exceeds
// the width.
func (r *Recommendation) GanttString(res Resources, width int) string {
	if width <= 0 || width > res.Steps {
		width = res.Steps
	}
	var b strings.Builder
	nameW := 0
	for _, s := range r.Schedules {
		if s.Enabled && len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	for _, s := range r.Schedules {
		if !s.Enabled {
			continue
		}
		isA, isO := StepCursor{Steps: s.AnalysisSteps}, StepCursor{Steps: s.OutputSteps}
		fmt.Fprintf(&b, "%-*s |", nameW, s.Name)
		for c := 0; c < width; c++ {
			lo := c*res.Steps/width + 1
			hi := (c + 1) * res.Steps / width
			ch := byte('.')
			for j := lo; j <= hi; j++ {
				if isO.At(j) {
					ch = 'O'
					break
				}
				if isA.At(j) {
					ch = 'A'
				}
			}
			b.WriteByte(ch)
		}
		b.WriteString("|\n")
	}
	return b.String()
}
