package replan

import (
	"testing"

	"insitu/internal/core"
	"insitu/internal/obs"
	"insitu/internal/runmon"
)

// The hysteresis edge tests drive a Replanner directly — a hand-fed monitor
// instead of the Simulate driver — so each gate (horizon, cooldown,
// no-improvement, infeasible, replan limit) can be hit in isolation. With the
// default CUSUM tuning a single 3x observation alarms immediately (relative
// error 2.0 accumulates 1.75 against the 1.0 threshold), which keeps the
// event choreography one line per alert.

const hSimSec = 0.010

func hSpecs() []core.AnalysisSpec {
	return []core.AnalysisSpec{
		{Name: "k1", CT: 0.002, OM: 2 << 20, IM: 1 << 20, Weight: 2, MinInterval: 2},
		{Name: "k2", CT: 0.001, OM: 1 << 20, IM: 1 << 20, Weight: 1, MinInterval: 3},
	}
}

func hRes(steps int, threshold float64) core.Resources {
	return core.Resources{
		Steps:         steps,
		TimeThreshold: threshold,
		MemThreshold:  24 << 20,
		Bandwidth:     1 << 30,
	}
}

type harness struct {
	t   *testing.T
	mon *runmon.Monitor
	rec *core.Recommendation
	rp  *Replanner
}

func newHarness(t *testing.T, specs []core.AnalysisSpec, res core.Resources, cfg Config) *harness {
	t.Helper()
	rec, err := core.Solve(specs, res, core.SolveOptions{})
	if err != nil {
		t.Fatalf("up-front solve: %v", err)
	}
	profile := runmon.FromPlan(specs, rec, res, hSimSec)
	profile.App = "replan-hysteresis"
	mon := runmon.NewMonitor(profile, runmon.Config{})
	return &harness{t: t, mon: mon, rec: rec, rp: New(mon, specs, res, rec, hSimSec, cfg)}
}

func (h *harness) step(j int, sec float64) {
	h.mon.Observe(obs.LedgerEvent{Type: obs.LedgerStep, Step: j, Dur: sec * 1e6})
}

func (h *harness) analysis(j int, name string, sec float64) {
	h.mon.Observe(obs.LedgerEvent{Type: obs.LedgerAnalysis, Name: name, Step: j, Dur: sec * 1e6})
}

func (h *harness) output(j int, name string, sec float64) {
	h.mon.Observe(obs.LedgerEvent{Type: obs.LedgerOutput, Name: name, Step: j, Dur: sec * 1e6})
}

// predicted returns a stream's current per-event prediction.
func (h *harness) predicted(stream string) float64 {
	h.t.Helper()
	for _, st := range h.mon.Snapshot().Streams {
		if st.Stream == stream {
			return st.PredictedSec
		}
	}
	h.t.Fatalf("no stream %q", stream)
	return 0
}

// mustRecords asserts the decision reasons recorded so far, in order.
func (h *harness) mustRecords(reasons ...string) {
	h.t.Helper()
	recs := h.rp.Records()
	if len(recs) != len(reasons) {
		h.t.Fatalf("got %d decision record(s) %+v, want reasons %v", len(recs), recs, reasons)
	}
	for i, want := range reasons {
		if recs[i].Reason != want {
			h.t.Fatalf("record %d reason %q, want %q (records: %+v)", i, recs[i].Reason, want, recs)
		}
	}
}

// An alert raised at the final simulation step leaves no remaining horizon:
// the replanner must record a "horizon" decision and keep the incumbent, not
// solve a zero-step MILP.
func TestHysteresisAlertAtFinalStep(t *testing.T) {
	h := newHarness(t, hSpecs(), hRes(50, 0.12), Config{})
	for j := 1; j < 50; j++ {
		h.step(j, hSimSec)
	}
	h.step(50, 3*hSimSec) // sim drift fires at the last step
	if got := h.rp.Decide(50); got != nil {
		t.Fatalf("Decide at final step returned a schedule: %+v", got)
	}
	h.mustRecords(runmon.ReplanHorizon)
	if h.rp.Incumbent() != h.rec {
		t.Fatal("incumbent changed on a horizon decision")
	}
	recs := h.rp.Records()
	if recs[0].Step != 50 || recs[0].Trigger != runmon.AlertDrift {
		t.Fatalf("horizon record mis-attributed: %+v", recs[0])
	}
}

// Back-to-back alerts inside the cooldown coalesce into a single decision at
// the first step outside it, instead of one decision per alert.
func TestHysteresisCooldownCoalescesAlerts(t *testing.T) {
	h := newHarness(t, hSpecs(), hRes(60, 0.12), Config{Cooldown: 10})
	for j := 1; j <= 4; j++ {
		h.step(j, hSimSec)
	}
	h.step(5, 3*hSimSec) // alert 1: sim drift
	// Adoption or not depends on the re-solve; either way exactly one
	// decision must be recorded.
	h.rp.Decide(5)
	if n := len(h.rp.Records()); n != 1 {
		t.Fatalf("first alert produced %d decisions, want 1", n)
	}

	h.step(6, hSimSec)
	h.analysis(7, "k1", 3*0.002) // alert 2, two steps after the decision
	for j := 7; j <= 14; j++ {
		if h.rp.Decide(j) != nil {
			t.Fatalf("Decide(%d) inside the cooldown adopted a schedule", j)
		}
		if n := len(h.rp.Records()); n != 1 {
			t.Fatalf("Decide(%d) inside the cooldown recorded a decision", j)
		}
	}
	h.rp.Decide(15) // first step with 15-5 >= Cooldown
	recs := h.rp.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d decisions after cooldown expiry, want 2: %+v", len(recs), recs)
	}
	if recs[1].Step != 15 {
		t.Fatalf("coalesced decision at step %d, want 15", recs[1].Step)
	}
	if recs[1].Stream != runmon.AnalyzeStream("k1") {
		t.Fatalf("coalesced decision attributed to %q, want %q", recs[1].Stream, runmon.AnalyzeStream("k1"))
	}
}

// With a prohibitive minimum-improvement gate a re-solve that cannot clearly
// beat a still-feasible incumbent is recorded as no_improvement and the
// incumbent keeps running.
func TestHysteresisNoImprovementKeepsIncumbent(t *testing.T) {
	h := newHarness(t, hSpecs(), hRes(60, 0.12), Config{MinImprove: 5})
	for j := 1; j <= 4; j++ {
		h.step(j, hSimSec)
	}
	h.step(5, 3*hSimSec) // sim drift: costs unchanged, incumbent still fits
	if got := h.rp.Decide(5); got != nil {
		t.Fatalf("Decide adopted despite the 500%% improvement gate: %+v", got)
	}
	h.mustRecords(runmon.ReplanNoImprovement)
	rec := h.rp.Records()[0]
	if rec.NewValue <= 0 {
		t.Fatalf("no_improvement record lost the re-solve objective: %+v", rec)
	}
	if rec.OldValue <= 0 || rec.BudgetSec <= 0 {
		t.Fatalf("no_improvement record lost incumbent pricing: %+v", rec)
	}
	if h.rp.Incumbent() != h.rec {
		t.Fatal("incumbent changed on a no_improvement decision")
	}
}

// When observed analysis time has already consumed the whole budget there is
// no feasible remaining-horizon model: the replanner must record infeasible
// and fall back to the incumbent — never panic, never adopt.
func TestHysteresisExhaustedBudgetIsInfeasible(t *testing.T) {
	h := newHarness(t, hSpecs(), hRes(60, 0.12), Config{})
	h.step(1, hSimSec)
	h.step(2, hSimSec)
	// One catastrophic analysis span blows the entire 0.12s budget and fires
	// the drift alert at the same time.
	h.analysis(3, "k1", 0.2)
	if got := h.rp.Decide(3); got != nil {
		t.Fatalf("Decide adopted with an exhausted budget: %+v", got)
	}
	h.mustRecords(runmon.ReplanInfeasible)
	rec := h.rp.Records()[0]
	if rec.BudgetSec > 0 {
		t.Fatalf("infeasible record reports positive remaining budget: %+v", rec)
	}
	if rec.SpentSec < 0.2 {
		t.Fatalf("infeasible record under-reports spend: %+v", rec)
	}
	if h.rp.Incumbent() != h.rec {
		t.Fatal("incumbent changed on an infeasible decision")
	}
}

// Once maxReplans adoptions have happened, the next trigger produces exactly
// one "limit" record and later triggers are dropped silently: the cap is a
// hard stop, not a recurring warning.
func TestHysteresisMaxReplansEmitsSingleLimit(t *testing.T) {
	h := newHarness(t, hSpecs(), hRes(300, 0.12), Config{Cooldown: 5})
	for j := 1; j <= 4; j++ {
		h.step(j, hSimSec)
	}
	// A 10x output-bandwidth collapse (clamped to the 4x factor cap) makes
	// the incumbent's remaining outputs unaffordable, so the first decision
	// must adopt a re-fit schedule regardless of the improvement gate. The
	// adoption rebaselines k1's output stream; from then on it alternates
	// between a 10x recovery, which frees budget the re-solve spends, and
	// another 10x collapse, and every decision adopts again.
	h.output(5, "k1", 10*float64(2<<20)/float64(1<<30))
	want := []string{runmon.ReplanAdopted}
	if h.rp.Decide(5) == nil {
		t.Fatalf("first decision did not adopt: %+v", h.rp.Records())
	}
	for n, step := 1, 15; n < maxReplans; n, step = n+1, step+10 {
		out := h.predicted(runmon.OutputStream("k1"))
		if n%2 == 1 { // a speedup alarms on its second observation
			h.output(step, "k1", out/10)
			h.output(step+1, "k1", out/10)
		} else {
			h.output(step+1, "k1", 10*out)
		}
		if h.rp.Decide(step+1) == nil {
			t.Fatalf("decision %d did not adopt: %+v", n+1, h.rp.Records())
		}
		want = append(want, runmon.ReplanAdopted)
	}
	h.mustRecords(want...)

	h.analysis(100, "k1", 3*0.002) // the next trigger, outside cooldown, over the cap
	if got := h.rp.Decide(100); got != nil {
		t.Fatalf("Decide adopted past maxReplans: %+v", got)
	}
	want = append(want, runmon.ReplanLimit)
	h.mustRecords(want...)

	h.analysis(115, "k2", 3*0.001) // and the one after: dropped without a record
	if got := h.rp.Decide(115); got != nil {
		t.Fatalf("Decide adopted past maxReplans: %+v", got)
	}
	h.mustRecords(want...)
}

// A decision step with no new alert reads nothing of the alert history: after
// k alerts have been raised and the pending one decided, Decide allocates
// nothing, whatever k is.
func TestDecideIgnoresAlertHistory(t *testing.T) {
	for _, k := range []int{1, 8, 64} {
		h := newHarness(t, hSpecs(), hRes(100, 0.12), Config{})
		replay := runmon.FromPlan(hSpecs(), h.rec, hRes(100, 0.12), hSimSec).PlanEvents()
		for j := 1; j <= k; j++ {
			for _, e := range replay {
				h.mon.Observe(e) // rebaseline, so the next drift alerts again
			}
			h.step(j, 3*hSimSec)
		}
		if _, n := h.mon.AlertFrom(0); n != k {
			t.Fatalf("k=%d: %d alerts raised", k, n)
		}
		if h.rp.Decide(100) != nil {
			t.Fatalf("k=%d: a decision at the last step adopted a schedule", k)
		}
		h.mustRecords(runmon.ReplanHorizon)
		if n := testing.AllocsPerRun(20, func() { h.rp.Decide(100) }); n != 0 {
			t.Errorf("k=%d: a decision step with no new alert allocates %v objects, want 0", k, n)
		}
		h.mustRecords(runmon.ReplanHorizon)
	}
}
