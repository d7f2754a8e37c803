package runmon

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"insitu/internal/core"
	"insitu/internal/obs"
)

// testProfile is a two-stream profile: 10ms sim steps and a kernel with 4ms
// analyses every other step.
func testProfile() *Profile {
	return &Profile{
		App: "test", Steps: 100, SimSec: 0.010,
		ThresholdSec: 0.5, PlannedSec: 0.2,
		Streams: map[string]float64{
			StreamSim:            0.010,
			AnalyzeStream("rdf"): 0.004,
		},
	}
}

func stepEvent(step int, sec float64) obs.LedgerEvent {
	return obs.LedgerEvent{Type: obs.LedgerStep, Step: step, Dur: sec * 1e6}
}

func analysisEvent(step int, kernel string, sec float64) obs.LedgerEvent {
	return obs.LedgerEvent{Type: obs.LedgerAnalysis, Name: kernel, Step: step, Dur: sec * 1e6}
}

func TestMonitorNoAlertsOnFaithfulRun(t *testing.T) {
	m := NewMonitor(testProfile(), Config{})
	m.Observe(obs.LedgerEvent{Type: obs.LedgerRunStart, Name: "mdsim/water"})
	for step := 1; step <= 100; step++ {
		// ±2% wobble around the prediction.
		wobble := 1.0 + 0.02*float64(step%3-1)
		m.Observe(stepEvent(step, 0.010*wobble))
		if step%2 == 0 {
			m.Observe(analysisEvent(step, "rdf", 0.004*wobble))
		}
	}
	m.Observe(obs.LedgerEvent{Type: obs.LedgerRunEnd})
	s := m.Snapshot()
	if len(s.Alerts) != 0 {
		t.Fatalf("faithful run raised alerts: %+v", s.Alerts)
	}
	if s.App != "mdsim/water" || !s.Ended || s.Step != 100 {
		t.Fatalf("snapshot header = %+v", s)
	}
	if len(s.Streams) != 2 {
		t.Fatalf("streams = %d, want 2", len(s.Streams))
	}
	if s.BudgetAtRisk {
		t.Fatal("budget flagged on a faithful run")
	}
}

func TestMonitorDetectsStepInflationWithinFiveSteps(t *testing.T) {
	m := NewMonitor(testProfile(), Config{})
	change := 50
	for step := 1; step <= 100; step++ {
		sec := 0.010
		if step >= change {
			sec *= 1.5
		}
		m.Observe(stepEvent(step, sec))
	}
	s := m.Snapshot()
	if s.DriftCount() == 0 {
		t.Fatal("no drift alert on 1.5x step inflation")
	}
	a := s.Alerts[0]
	if a.Stream != StreamSim || a.Direction != "slow" {
		t.Fatalf("alert = %+v", a)
	}
	if a.Step < change || a.Step > change+5 {
		t.Fatalf("detected at step %d, want within 5 of %d", a.Step, change)
	}
	// One alert per stream, not one per observation past the threshold.
	if n := s.DriftCount(); n != 1 {
		t.Fatalf("drift alerts = %d, want 1", n)
	}
}

func TestMonitorBudgetAtRisk(t *testing.T) {
	// Planned 0.2s of analysis against a 0.5s threshold; triple the actual
	// analysis cost and the projection must cross the budget line.
	m := NewMonitor(testProfile(), Config{})
	found := false
	for step := 1; step <= 100 && !found; step++ {
		m.Observe(stepEvent(step, 0.010))
		if step%2 == 0 {
			m.Observe(analysisEvent(step, "rdf", 0.020)) // 5x the predicted 4ms
		}
		found = m.Snapshot().BudgetAtRisk
	}
	if !found {
		t.Fatal("budget never flagged despite 5x analysis inflation")
	}
	s := m.Snapshot()
	var budget *Alert
	for i := range s.Alerts {
		if s.Alerts[i].Kind == AlertBudget {
			budget = &s.Alerts[i]
		}
	}
	if budget == nil {
		t.Fatalf("no budget alert in %+v", s.Alerts)
	}
	if budget.Observed <= budget.Predicted {
		t.Fatalf("budget alert projection %g <= threshold %g", budget.Observed, budget.Predicted)
	}
}

// TestProjectionSumsInStreamOrder: the budget projection adds the streams'
// scored seconds in the order the streams were created. Float addition does
// not associate, so a sum in map order — what this replaced — came out a last
// bit apart from run to run on values like these, and that bit reaches the
// gauge and the budget alert's ledger line.
func TestProjectionSumsInStreamOrder(t *testing.T) {
	kernels := []string{"rdf", "msd", "vacf", "histo", "fft"}
	secs := []float64{0.1, 0.2, 0.3, 0.7, 1e-9}
	p := testProfile()
	p.PlannedSec, p.ThresholdSec = 1000, 1e6 // large beside the observed seconds, so the inflation's last bit shows
	for i, k := range kernels {
		p.Streams[AnalyzeStream(k)] = secs[i] / 3
	}
	var obsSec, predSec float64
	for i := range kernels {
		obsSec += secs[i]
		predSec += secs[i] / 3
	}
	var analysisSec float64
	for _, sec := range secs {
		analysisSec += sec
	}
	want := analysisSec + p.PlannedSec*float64(p.Steps-10)/float64(p.Steps)*(obsSec/predSec)
	for run := 0; run < 64; run++ {
		m := NewMonitor(p, Config{})
		for i, k := range kernels {
			m.Observe(analysisEvent(10, k, secs[i]))
		}
		if got := m.Snapshot().ProjectedSec; got != want {
			t.Fatalf("run %d: projected %v, want %v (the sum in creation order)", run, got, want)
		}
	}
}

func TestMonitorSelfCalibration(t *testing.T) {
	// No profile at all: the first calibration observations seed the
	// baseline, then drift past it is detected.
	m := NewMonitor(nil, Config{})
	for step := 1; step <= 30; step++ {
		sec := 0.010
		if step >= 20 {
			sec = 0.030
		}
		m.Observe(stepEvent(step, sec))
	}
	s := m.Snapshot()
	if s.DriftCount() != 1 {
		t.Fatalf("drift alerts = %d, want 1 (self-calibrated)", s.DriftCount())
	}
	if a := s.Alerts[0]; a.Step < 20 || a.Step > 25 {
		t.Fatalf("detected at %d, want soon after 20", a.Step)
	}
}

func TestMonitorAlertsFlowToLedgerAndMetrics(t *testing.T) {
	var buf bytes.Buffer
	ledger := obs.NewEventLog(&buf)
	reg := obs.NewRegistry()
	m := NewMonitor(testProfile(), Config{Ledger: ledger, Metrics: reg})
	for step := 1; step <= 20; step++ {
		m.Observe(stepEvent(step, 0.030)) // 3x from the start
	}
	if err := ledger.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadLedger(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	var alert *obs.LedgerEvent
	for i := range events {
		if events[i].Type == obs.LedgerAlert {
			alert = &events[i]
		}
	}
	if alert == nil {
		t.Fatal("no alert event written to the ledger")
	}
	var read Alert
	first, raised := m.AlertFrom(0)
	if !obs.ReadRecord(*alert, obs.LedgerAlert, &read) || read != first {
		t.Fatalf("alert event %+v reads as %+v, want %+v", alert, read, first)
	}
	if past, n := m.AlertFrom(raised); n != raised || past != (Alert{}) {
		t.Fatalf("AlertFrom(%d) = %+v of %d after %d alerts, want the zero Alert", raised, past, n, raised)
	}
	if alert.Name != StreamSim || alert.Args["predicted_sec"] != 0.010 || read.Direction != "slow" {
		t.Fatalf("alert event = %+v", alert)
	}

	// Metrics registry carries the detector state and the alert counter.
	var sawCounter, sawEWMA bool
	for _, metric := range reg.Snapshot() {
		switch metric.Name {
		case "runmon_alerts_total":
			if metric.Value >= 1 {
				sawCounter = true
			}
		case "runmon_ewma_rel_err":
			if metric.Labels["stream"] == StreamSim {
				sawEWMA = true
			}
		}
	}
	if !sawCounter || !sawEWMA {
		t.Fatalf("metrics missing: counter=%v ewma=%v", sawCounter, sawEWMA)
	}
}

func TestMonitorIgnoresUnknownAndNil(t *testing.T) {
	var m *Monitor
	m.Observe(stepEvent(1, 1)) // nil-safe
	_ = m.Snapshot()
	if a, n := m.AlertFrom(0); n != 0 || a != (Alert{}) {
		t.Fatalf("nil monitor: AlertFrom(0) = %+v of %d", a, n)
	}
	m.SetProfile(nil)

	real := NewMonitor(nil, Config{})
	real.Observe(obs.LedgerEvent{Type: "quantum_flux", Step: 3, Dur: 99})
	if s := real.Snapshot(); len(s.Streams) != 0 {
		t.Fatalf("unknown event created streams: %+v", s.Streams)
	}
}

func TestProfileFromPlanAndEventsRoundTrip(t *testing.T) {
	specs := []core.AnalysisSpec{
		{Name: "rdf", CT: 0.004, OM: 1 << 20, MinInterval: 2},
		{Name: "msd", CT: 0.002, OT: 0.001, MinInterval: 2},
		{Name: "off", CT: 0.009, MinInterval: 2},
	}
	rec := &core.Recommendation{
		TotalTime: 0.25,
		Schedules: []core.AnalysisSchedule{
			{Name: "rdf", Enabled: true, Count: 10},
			{Name: "msd", Enabled: true, Count: 5},
			{Name: "off", Enabled: false},
		},
	}
	res := core.Resources{Steps: 100, TimeThreshold: 0.5, Bandwidth: 1 << 28}
	p := FromPlan(specs, rec, res, 0.010)

	if p.Streams[AnalyzeStream("rdf")] != 0.004 {
		t.Fatalf("rdf ct = %g", p.Streams[AnalyzeStream("rdf")])
	}
	// ot derived from om/bw for rdf, taken directly for msd.
	wantOT := float64(1<<20) / float64(1<<28)
	if got := p.Streams[OutputStream("rdf")]; got != wantOT {
		t.Fatalf("rdf ot = %g, want %g", got, wantOT)
	}
	if p.Streams[OutputStream("msd")] != 0.001 {
		t.Fatalf("msd ot = %g", p.Streams[OutputStream("msd")])
	}
	// Disabled analyses contribute no streams.
	if _, ok := p.Streams[AnalyzeStream("off")]; ok {
		t.Fatal("disabled analysis got a stream")
	}

	// Round trip through ledger plan events.
	var buf bytes.Buffer
	ledger := obs.NewEventLog(&buf)
	ledger.SetClock(func() time.Time { return time.Unix(0, 0) })
	for _, e := range p.PlanEvents() {
		ledger.Append(e)
	}
	ledger.Close()
	events, err := obs.ReadLedger(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	got := FromEvents(events)
	if got == nil {
		t.Fatal("FromEvents returned nil")
	}
	if got.SimSec != p.SimSec || got.Steps != p.Steps ||
		got.ThresholdSec != p.ThresholdSec || got.PlannedSec != p.PlannedSec {
		t.Fatalf("round trip header: got %+v want %+v", got, p)
	}
	for name, sec := range p.Streams {
		if got.Streams[name] != sec {
			t.Fatalf("stream %s: got %g want %g", name, got.Streams[name], sec)
		}
	}
	// A ledger without plan events yields no profile.
	if FromEvents([]obs.LedgerEvent{stepEvent(1, 0.01)}) != nil {
		t.Fatal("FromEvents invented a profile")
	}
}

// Regression: a plan event arriving after a stream has begun self-calibrating
// must rebaseline that stream on the plan's prediction. The old code left the
// pre-plan observations in the calibration sum, so the eventual baseline
// double-counted them and the plan prediction was never adopted.
func TestPlanEventRebaselinesCalibratingStream(t *testing.T) {
	m := NewMonitor(nil, Config{})
	// Three slow observations land before the plan (calibration still open).
	for step := 1; step <= 3; step++ {
		m.Observe(analysisEvent(step, "rdf", 0.050))
	}
	m.Observe(obs.LedgerEvent{
		Type: obs.LedgerPlan, Name: AnalyzeStream("rdf"),
		Args: map[string]float64{"sec_per_event": 0.020},
	})
	s := m.Snapshot()
	if len(s.Streams) != 1 {
		t.Fatalf("streams = %d, want 1", len(s.Streams))
	}
	if got := s.Streams[0].PredictedSec; got != 0.020 {
		t.Fatalf("predicted after plan = %gs, want the plan's 0.020s (calibrated mean leaked through)", got)
	}
	// The pre-plan observations must not have been scored against the new
	// baseline: residual statistics start clean.
	if st := s.Streams[0]; st.CUSUMPos != 0 || st.CUSUMNeg != 0 || st.EWMARelErr != 0 {
		t.Fatalf("detector state not reset by plan event: %+v", st)
	}
	// On-plan observations after the rebaseline stay silent.
	for step := 4; step <= 20; step++ {
		m.Observe(analysisEvent(step, "rdf", 0.020))
	}
	if a, n := m.AlertFrom(0); n != 0 {
		t.Fatalf("faithful post-plan observations alerted %d times, first %+v", n, a)
	}
}

// A plan event re-emitted mid-run (what an adopted replan does) resets the
// drifted stream's detectors so the adapted schedule is scored fresh, and a
// new threshold re-arms the budget alert.
func TestPlanEventRebaselinesDriftedStream(t *testing.T) {
	m := NewMonitor(testProfile(), Config{})
	for step := 1; step <= 10; step++ {
		m.Observe(stepEvent(step, 0.020)) // 2x the predicted 10ms
	}
	if m.Snapshot().DriftCount() == 0 {
		t.Fatal("sustained 2x inflation did not alert")
	}
	// Replan: the adapted profile predicts the observed 20ms steps.
	m.Observe(obs.LedgerEvent{
		Type: obs.LedgerPlan, Name: StreamSim,
		Args: map[string]float64{
			"sec_per_event": 0.020, "steps": 100,
			"threshold_sec": 0.5, "planned_sec": 0.2,
		},
	})
	s := m.Snapshot()
	if s.Streams[0].Alerted {
		t.Fatal("stream still flagged after rebaseline")
	}
	if s.Streams[0].PredictedSec != 0.020 {
		t.Fatalf("predicted = %g, want rebaselined 0.020", s.Streams[0].PredictedSec)
	}
	if s.BudgetAtRisk {
		t.Fatal("budget flag survived a plan event carrying a threshold")
	}
	for step := 11; step <= 30; step++ {
		m.Observe(stepEvent(step, 0.020))
	}
	if got := m.Snapshot().DriftCount(); got != 1 {
		t.Fatalf("post-rebaseline on-plan steps re-alerted: %d drift alerts, want 1", got)
	}
}

// Replan ledger events round-trip through the monitor into the snapshot's
// replan timeline and the text report.
func TestMonitorCollectsReplanEvents(t *testing.T) {
	m := NewMonitor(testProfile(), Config{})
	rec := ReplanRecord{
		Step: 40, Trigger: AlertDrift, Stream: StreamSim,
		Reason: ReplanAdopted, Adopted: true,
		OldValue: 3, NewValue: 5, OldCostSec: 0.30, NewCostSec: 0.25,
		BudgetSec: 0.40, SpentSec: 0.10,
	}
	m.Observe(rec.Event())
	m.Observe(ReplanRecord{
		Step: 80, Trigger: AlertBudget, Stream: "budget",
		Reason: ReplanNoImprovement, OldValue: 5, BudgetSec: 0.05,
	}.Event())
	got := m.Snapshot().Replans
	if len(got) != 2 {
		t.Fatalf("replans = %d, want 2", len(got))
	}
	if got[0] != rec {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got[0], rec)
	}
	if got[1].Trigger != AlertBudget || got[1].Reason != ReplanNoImprovement || got[1].Adopted {
		t.Fatalf("second record = %+v", got[1])
	}
	var buf bytes.Buffer
	if err := m.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "replans: 2") || !strings.Contains(out, "[adopted]") ||
		!strings.Contains(out, "[no_improvement]") {
		t.Fatalf("report missing replan timeline:\n%s", out)
	}
	// Events with a reason this reader does not know are skipped, not misread.
	e := rec.Event()
	e.Args["reason"] = 5
	m.Observe(e)
	if len(m.Snapshot().Replans) != 2 {
		t.Fatal("unknown-reason replan event was not skipped")
	}
}

// flightEvents builds a minimal well-formed solveprog run as ledger events.
func flightEvents(name string) []obs.LedgerEvent {
	recs := []obs.SolveProgress{
		{Seq: 0, Kind: obs.SolveProgStart, Workers: 1, Vars: 4, IntVars: 2, Constraints: 5},
		{Seq: 1, Kind: obs.SolveProgNode, Workers: 1, Nodes: 1, Open: 1,
			HasInc: true, Incumbent: 8, HasBound: true, Bound: 12},
		{Seq: 2, Kind: obs.SolveProgEnd, Workers: 1, Nodes: 2,
			HasInc: true, Incumbent: 10, HasBound: true, Bound: 10, Status: "optimal"},
	}
	var out []obs.LedgerEvent
	for _, p := range recs {
		out = append(out, p.Event(name))
	}
	return out
}

func TestMonitorObservesSolveProg(t *testing.T) {
	m := NewMonitor(nil, Config{})
	for _, e := range flightEvents("plan") {
		m.Observe(e)
	}
	for _, e := range flightEvents("replan") {
		m.Observe(e)
	}
	flights := m.Flights()
	if len(flights) != 2 || flights[0].Name != "plan" || flights[1].Name != "replan" {
		t.Fatalf("flights = %+v", flights)
	}
	if len(flights[1].Records) != 3 {
		t.Fatalf("replan run holds %d records, want 3", len(flights[1].Records))
	}
	snap := m.Snapshot()
	if len(snap.Flights) != 2 {
		t.Fatalf("snapshot flights = %d", len(snap.Flights))
	}
	var buf strings.Builder
	if err := snap.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"solve progress plan", "solve progress replan", "final: optimal"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, buf.String())
		}
	}
}

func TestMonitorFlightRetentionBounds(t *testing.T) {
	m := NewMonitor(nil, Config{})
	for i := 0; i < maxFlightRuns+3; i++ {
		m.Observe(obs.LedgerEvent{Type: obs.LedgerSolve, Name: "solve", Args: map[string]float64{"nodes": float64(i)}})
		for _, e := range flightEvents("solve") {
			m.Observe(e)
		}
	}
	if got := len(m.Flights()); got != maxFlightRuns {
		t.Fatalf("retained %d flight runs, want %d", got, maxFlightRuns)
	}
	solves := m.Snapshot().Solves
	if len(solves) != maxFlightRuns || solves[len(solves)-1].Args["nodes"] != maxFlightRuns+2 {
		t.Fatalf("retained %d solve events, want the newest %d", len(solves), maxFlightRuns)
	}

	// An over-long stream keeps its newest records, as a FlightRecorder's
	// ring does: the end record with the status and final gap among them.
	long := flightEvents("long")
	wave := long[1]
	m.Observe(long[0])
	for i := 0; i < maxFlightRecords+4; i++ {
		m.Observe(wave)
	}
	m.Observe(long[2])
	flights := m.Flights()
	recs := flights[len(flights)-1].Records
	if len(recs) != maxFlightRecords || recs[len(recs)-1].Kind != obs.SolveProgEnd {
		t.Fatalf("over-long stream kept %d records ending in a %s record, want %d ending in end",
			len(recs), recs[len(recs)-1].Kind, maxFlightRecords)
	}
	if _, status, ok := obs.FinalGap(recs); !ok || status != "optimal" {
		t.Fatalf("over-long stream lost its end record: %q, %t", status, ok)
	}
}

// TestObserveResolvesStreamsWithoutAllocating: after a kernel's first events
// its two streams are found by the kernel's name — no stream name is built
// per event — and the streams are the ones a by-name lookup finds, in
// creation order, so plan events and reports see the same state.
func TestObserveResolvesStreamsWithoutAllocating(t *testing.T) {
	m := NewMonitor(nil, Config{})
	m.Observe(analysisEvent(1, "rdf", 0.004))
	m.Observe(obs.LedgerEvent{Type: obs.LedgerOutput, Name: "msd", Step: 1, Dur: 1000})
	m.Observe(obs.LedgerEvent{Type: obs.LedgerOutput, Name: "rdf", Step: 1, Dur: 1000})
	step := 1
	if n := testing.AllocsPerRun(200, func() {
		step++
		m.Observe(analysisEvent(step, "rdf", 0.004))
		m.Observe(obs.LedgerEvent{Type: obs.LedgerOutput, Name: "rdf", Step: step, Dur: 1000})
		m.Observe(obs.LedgerEvent{Type: obs.LedgerOutput, Name: "msd", Step: step, Dur: 1000})
	}); n != 0 {
		t.Fatalf("observing known streams allocates %v times", n)
	}
	s := m.Snapshot()
	var names []string
	for _, st := range s.Streams {
		names = append(names, st.Stream)
	}
	want := []string{AnalyzeStream("rdf"), OutputStream("msd"), OutputStream("rdf")}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("streams = %v, want %v (creation order)", names, want)
	}
	if s.Streams[0].Count != 202 || s.Streams[1].Count != 202 {
		t.Fatalf("counts = %d, %d, want 202 each", s.Streams[0].Count, s.Streams[1].Count)
	}
}
