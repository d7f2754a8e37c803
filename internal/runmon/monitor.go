package runmon

import (
	"sync"

	"insitu/internal/obs"
)

// Alert kinds.
const (
	AlertDrift  = "drift"  // a stream's CUSUM crossed its threshold
	AlertBudget = "budget" // projected total analysis time exceeds the budget
)

// Detector settings, the same for every stream.
const (
	// ewmaAlpha is the EWMA smoothing weight.
	ewmaAlpha = 0.3
	// cusumSlack is the CUSUM per-observation allowance k in relative-error
	// units: residuals within ±25% of the prediction never accumulate
	// toward an alarm.
	cusumSlack = 0.25
	// cusumThreshold is the CUSUM alarm level h: a sustained 1.5× step-time
	// inflation (relative error 0.5) alarms after ceil(1.0/0.25) = 4
	// observations.
	cusumThreshold = 1.0
	// calibration is how many observations seed the baseline of a stream
	// the profile does not predict. During calibration no residuals are
	// scored for that stream.
	calibration = 5
)

// Config wires a Monitor to its sinks. The zero value is usable.
type Config struct {
	// Ledger, when non-nil, receives every alert as an "alert" event, so
	// alerts land in the same JSONL stream as the run they describe.
	Ledger *obs.EventLog
	// Metrics, when non-nil, exports the live detector state: per-stream
	// runmon_ewma_rel_err / runmon_cusum_pos / runmon_cusum_neg gauges, a
	// runmon_alerts_total counter, and the budget projection gauges.
	Metrics *obs.Registry
}

// Alert is one emitted drift or budget alert, the ledger record
// (obs.RecordEvent) of an "alert" event.
type Alert struct {
	Kind      string  `json:"kind" ledger:"drift|budget"`             // AlertDrift or AlertBudget
	Stream    string  `json:"stream" ledger:"name"`                   // residual stream, or "budget"
	Step      int     `json:"step" ledger:"step"`                     // simulation step at detection
	Direction string  `json:"direction,omitempty" ledger:"fast|slow"` // "slow" or "fast" (drift only)
	RelErr    float64 `json:"rel_err"`                                // EWMA of relative error at detection
	CUSUM     float64 `json:"cusum"`                                  // alarming CUSUM statistic
	Predicted float64 `json:"predicted_sec"`                          // per-event prediction (drift) or budget (budget)
	Observed  float64 `json:"observed_sec"`                           // last observation (drift) or projection (budget)
}

// streamState is the per-stream detector stack.
type streamState struct {
	name       string
	predicted  float64 // seconds per event; 0 while calibrating
	calSum     float64
	calN       int
	ewma       EWMA
	cusum      CUSUM
	count      int
	obsSec     float64 // total observed seconds (display mean; never reset)
	scoredObs  float64 // observed seconds over scored events (reset on rebaseline)
	scoredPred float64 // predicted seconds over scored events (reset on rebaseline)
	lastSec    float64
	alerted    bool
	alertStep  int

	mEWMA     *obs.Gauge
	mCusumPos *obs.Gauge
	mCusumNeg *obs.Gauge
}

// kernelStreams holds one kernel's two streams, each nil until its first
// event creates it (creation order is report order).
type kernelStreams struct{ analyze, output *streamState }

// Monitor consumes ledger-style run events and maintains the per-stream
// residual statistics. It is safe for concurrent use; Observe is cheap
// enough to sit on the coupling runner's hot path.
type Monitor struct {
	mu      sync.Mutex
	cfg     Config
	profile *Profile
	streams map[string]*streamState
	order   []*streamState // the streams in creation order: reports and sums walk this, never the map
	// kernels resolves an analysis or output event to its stream by the
	// kernel's name, so the stream's name is built once per kernel rather
	// than per event. A streamState lives as long as the monitor (rebaseline
	// resets it in place), so the entries never go stale.
	kernels map[string]*kernelStreams

	app         string
	runs        int
	step        int // highest simulation step seen
	ended       bool
	analysisSec float64 // observed analysis+output seconds so far
	projected   float64
	budgetHit   bool
	alerts      []Alert
	replans     []ReplanRecord
	solves      []obs.LedgerEvent
	flights     []obs.SolveProgRun

	mProjected *obs.Gauge
	mThreshold *obs.Gauge
}

// NewMonitor builds a monitor. profile may be nil: every stream then
// self-calibrates from its first calibration observations, which is
// how runmon scores ledgers from runs that never wrote plan events.
func NewMonitor(profile *Profile, cfg Config) *Monitor {
	m := &Monitor{
		cfg:     cfg,
		streams: map[string]*streamState{},
		kernels: map[string]*kernelStreams{},
	}
	m.profile = profile
	if profile != nil {
		m.app = profile.App
	}
	m.mProjected = m.cfg.Metrics.Gauge("runmon_projected_analysis_sec", nil)
	m.mThreshold = m.cfg.Metrics.Gauge("runmon_threshold_sec", nil)
	if profile != nil && profile.ThresholdSec > 0 {
		m.mThreshold.Set(profile.ThresholdSec)
	}
	return m
}

// SetProfile installs (or replaces) the predicted profile; campaign.Execute
// calls this once the plan is solved. Streams already self-calibrated keep
// their calibrated baseline.
func (m *Monitor) SetProfile(p *Profile) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.profile = p
	if p != nil {
		if p.App != "" {
			m.app = p.App
		}
		if p.ThresholdSec > 0 {
			m.mThreshold.Set(p.ThresholdSec)
		}
	}
}

// Observe scores one ledger-style event. It accepts exactly the events
// coupling.Runner and campaign emit (run_start, step, analysis, output,
// plan, run_end, plus solve events and solveprog flight samples, which it
// retains for the Snapshot's solve rows and gap-closure view); every other
// type is ignored, so a whole ledger can be replayed through it unfiltered.
// Nil-safe: a nil monitor drops events.
func (m *Monitor) Observe(e obs.LedgerEvent) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch e.Type {
	case obs.LedgerRunStart:
		m.runs++
		if e.Name != "" {
			m.app = e.Name
		}
	case obs.LedgerRunEnd:
		m.ended = true
	case obs.LedgerPlan:
		if m.profile == nil {
			m.profile = &Profile{Streams: map[string]float64{}}
		}
		row := m.profile.absorbPlanEvent(e)
		if m.profile.ThresholdSec > 0 {
			m.mThreshold.Set(m.profile.ThresholdSec)
		}
		m.rebaseline(row.Stream)
		if row.Stream == StreamSim && row.ThresholdSec > 0 {
			// A fresh budget (a replan's plan events carry one) re-arms the
			// budget alert against the new threshold.
			m.budgetHit = false
		}
	case obs.LedgerReplan:
		var r ReplanRecord
		if obs.ReadRecord(e, obs.LedgerReplan, &r) {
			m.replans = append(m.replans, r)
		}
	case obs.LedgerSolve:
		m.solves = append(m.solves, e)
		if len(m.solves) > maxFlightRuns {
			m.solves = m.solves[len(m.solves)-maxFlightRuns:]
		}
	case obs.LedgerSolveProg:
		m.observeSolveProg(e)
	case obs.LedgerStep:
		if e.Step > m.step {
			m.step = e.Step
		}
		m.observe(m.stream(StreamSim), e.Step, e.Dur/1e6)
	case obs.LedgerAnalysis, obs.LedgerOutput:
		sec := e.Dur / 1e6
		m.analysisSec += sec
		m.observe(m.kernelStream(e), e.Step, sec)
		m.projectBudget(e.Step)
	}
}

// kernelStream returns (creating on first use) the stream an analysis or
// output event belongs to.
func (m *Monitor) kernelStream(e obs.LedgerEvent) *streamState {
	ks, ok := m.kernels[e.Name]
	if !ok {
		ks = &kernelStreams{}
		m.kernels[e.Name] = ks
	}
	if e.Type == obs.LedgerOutput {
		if ks.output == nil {
			ks.output = m.stream(OutputStream(e.Name))
		}
		return ks.output
	}
	if ks.analyze == nil {
		ks.analyze = m.stream(AnalyzeStream(e.Name))
	}
	return ks.analyze
}

// rebaseline aligns an already-created stream with a freshly absorbed plan
// prediction. Before this fix a plan event arriving after a stream had begun
// self-calibrating was silently ignored by that stream: the observations that
// preceded the plan stayed in the calibration sum and also kept being scored
// once calibration closed, double-counting them against a baseline the plan
// had superseded. Adopting the plan prediction and resetting the detector
// stack makes a mid-stream plan event a clean rebaseline — which is exactly
// what a replanner needs: re-emitting plan events through Observe resets the
// detectors for the adapted schedule. Callers hold m.mu.
func (m *Monitor) rebaseline(name string) {
	st, ok := m.streams[name]
	if !ok {
		return
	}
	pred := m.profile.Streams[name]
	if pred <= 0 {
		return
	}
	st.predicted = pred
	st.calSum, st.calN = 0, 0
	st.scoredObs, st.scoredPred = 0, 0
	st.ewma = EWMA{}
	st.cusum.Reset()
	st.alerted = false
	st.mEWMA.Set(0)
	st.mCusumPos.Set(0)
	st.mCusumNeg.Set(0)
}

// stream returns (creating on first use) the detector stack for name.
func (m *Monitor) stream(name string) *streamState {
	st, ok := m.streams[name]
	if !ok {
		st = &streamState{
			name: name,
		}
		if m.profile != nil {
			st.predicted = m.profile.Streams[name]
		}
		labels := obs.Labels{"stream": name}
		st.mEWMA = m.cfg.Metrics.Gauge("runmon_ewma_rel_err", labels)
		st.mCusumPos = m.cfg.Metrics.Gauge("runmon_cusum_pos", labels)
		st.mCusumNeg = m.cfg.Metrics.Gauge("runmon_cusum_neg", labels)
		m.streams[name] = st
		m.order = append(m.order, st)
	}
	return st
}

// observe scores one duration on one stream: resolve the prediction
// (profile or calibration), compute the signed relative error, update the
// EWMA and CUSUM, and raise the stream's drift alert the first time the
// CUSUM alarms.
func (m *Monitor) observe(st *streamState, step int, sec float64) {
	st.count++
	st.obsSec += sec
	st.lastSec = sec

	if st.predicted <= 0 {
		// Self-calibration: the first calibration observations set the
		// baseline; no residuals are scored until it is in place.
		st.calSum += sec
		st.calN++
		if st.calN >= calibration {
			st.predicted = st.calSum / float64(st.calN)
		}
		return
	}

	st.scoredObs += sec
	st.scoredPred += st.predicted
	x := (sec - st.predicted) / st.predicted
	st.mEWMA.Set(st.ewma.Observe(x))
	fired := st.cusum.Observe(x)
	pos, neg := st.cusum.Stat()
	st.mCusumPos.Set(pos)
	st.mCusumNeg.Set(neg)

	if fired && !st.alerted {
		st.alerted = true
		st.alertStep = step
		stat := pos
		if neg > pos {
			stat = neg
		}
		m.raise(Alert{
			Kind: AlertDrift, Stream: st.name, Step: step,
			Direction: st.cusum.Direction(),
			RelErr:    st.ewma.Value(), CUSUM: stat,
			Predicted: st.predicted, Observed: sec,
		})
	}
}

// projectBudget recomputes the budget-at-risk projection: given the drift
// observed so far, will the remaining schedule blow the time budget? The
// remaining planned work is scaled by the run-wide inflation factor
// (observed / predicted over all scored analysis events).
func (m *Monitor) projectBudget(step int) {
	p := m.profile
	if p == nil || p.ThresholdSec <= 0 || p.Steps <= 0 || p.PlannedSec <= 0 {
		return
	}
	var obsSec, predSec float64
	for _, st := range m.order {
		if st.name == StreamSim {
			continue
		}
		obsSec += st.scoredObs
		predSec += st.scoredPred
	}
	inflation := 1.0
	if predSec > 0 {
		inflation = obsSec / predSec
	}
	remaining := p.PlannedSec * float64(p.Steps-step) / float64(p.Steps)
	if remaining < 0 {
		remaining = 0
	}
	m.projected = m.analysisSec + remaining*inflation
	m.mProjected.Set(m.projected)

	if !m.budgetHit && m.projected > p.ThresholdSec {
		m.budgetHit = true
		m.raise(Alert{
			Kind: AlertBudget, Stream: "budget", Step: step,
			RelErr:    inflation - 1,
			Predicted: p.ThresholdSec, Observed: m.projected,
		})
	}
}

// raise records an alert, appends it to the ledger as an alert event, and
// bumps the alert counter. Callers hold m.mu.
func (m *Monitor) raise(a Alert) {
	m.alerts = append(m.alerts, a)
	m.cfg.Metrics.Counter("runmon_alerts_total", obs.Labels{"stream": a.Stream, "kind": a.Kind}).Inc()
	if m.cfg.Ledger != nil {
		m.cfg.Ledger.Append(obs.RecordEvent(obs.LedgerAlert, &a))
	}
}

// AlertFrom returns the i-th alert raised (zero-based; the zero Alert when
// there is none yet) and how many have been raised so far, so a consumer
// that remembers the count reads each new alert once without copying the
// history.
func (m *Monitor) AlertFrom(i int) (Alert, int) {
	if m == nil {
		return Alert{}, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if i < 0 || i >= len(m.alerts) {
		return Alert{}, len(m.alerts)
	}
	return m.alerts[i], len(m.alerts)
}

// Solve retention bounds: a live monitor keeps the most recent
// maxFlightRuns solve events and flight streams (older ones roll off) and
// the newest maxFlightRecords records of each stream, as a FlightRecorder's
// ring does, so a replanning run cannot grow the monitor without bound.
const (
	maxFlightRuns    = 8
	maxFlightRecords = obs.DefaultFlightCapacity
)

// observeSolveProg folds one solver flight sample into the retained
// gap-closure streams by obs.AppendSolveProg's grouping rule, within the
// retention bounds. Callers hold m.mu.
func (m *Monitor) observeSolveProg(e obs.LedgerEvent) {
	p, ok := obs.SolveProgFromEvent(e)
	if !ok {
		return
	}
	m.flights = obs.AppendSolveProg(m.flights, e.Name, p)
	if n := len(m.flights); n > maxFlightRuns {
		m.flights = m.flights[n-maxFlightRuns:]
	}
	if r := &m.flights[len(m.flights)-1]; len(r.Records) > maxFlightRecords {
		r.Records = r.Records[len(r.Records)-maxFlightRecords:]
	}
}

// Flights returns a copy of the retained solver flight streams, oldest
// first.
func (m *Monitor) Flights() []obs.SolveProgRun {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return copyFlights(m.flights)
}

func copyFlights(flights []obs.SolveProgRun) []obs.SolveProgRun {
	if len(flights) == 0 {
		return nil
	}
	out := make([]obs.SolveProgRun, len(flights))
	for i, f := range flights {
		out[i] = obs.SolveProgRun{Name: f.Name, Records: append([]obs.SolveProgress(nil), f.Records...)}
	}
	return out
}
