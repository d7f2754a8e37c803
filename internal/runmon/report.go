package runmon

import (
	"fmt"
	"io"
	"strings"

	"insitu/internal/obs"
)

// StreamSnapshot is the frozen detector state of one residual stream.
type StreamSnapshot struct {
	Stream       string  `json:"stream"`
	Count        int     `json:"count"`         // scored + calibrating observations
	PredictedSec float64 `json:"predicted_sec"` // per-event prediction (0 = still calibrating)
	MeanSec      float64 `json:"mean_sec"`      // mean observed seconds per event
	LastSec      float64 `json:"last_sec"`
	EWMARelErr   float64 `json:"ewma_rel_err"`
	CUSUMPos     float64 `json:"cusum_pos"`
	CUSUMNeg     float64 `json:"cusum_neg"`
	Alerted      bool    `json:"alerted"`
	AlertStep    int     `json:"alert_step,omitempty"`
}

// Snapshot is the monitor's full state at one instant; cmd/runmon renders it
// as the tail dashboard, the report body, and the /drift.json payload.
type Snapshot struct {
	App          string           `json:"app,omitempty"`
	Runs         int              `json:"runs"`
	Step         int              `json:"step"`
	Steps        int              `json:"steps,omitempty"` // planned run length, when known
	Ended        bool             `json:"ended"`
	Streams      []StreamSnapshot `json:"streams"`
	Alerts       []Alert          `json:"alerts"`
	Replans      []ReplanRecord   `json:"replans,omitempty"`
	AnalysisSec  float64          `json:"analysis_sec"`            // observed analysis+output time
	ProjectedSec float64          `json:"projected_sec,omitempty"` // budget-at-risk projection
	ThresholdSec float64          `json:"threshold_sec,omitempty"`
	BudgetAtRisk bool             `json:"budget_at_risk"`
	// Solves holds the retained solve events (nodes, pivots, objective in
	// their args); empty for ledgers written without a planning solve.
	Solves []obs.LedgerEvent `json:"solves,omitempty"`
	// Flights holds the retained solver flight streams (solveprog events seen
	// by the monitor); empty for ledgers without flight recording.
	Flights []obs.SolveProgRun `json:"flights,omitempty"`
}

// Snapshot freezes the monitor state. Nil-safe: a nil monitor snapshots
// empty.
func (m *Monitor) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		App:          m.app,
		Runs:         m.runs,
		Step:         m.step,
		Ended:        m.ended,
		AnalysisSec:  m.analysisSec,
		ProjectedSec: m.projected,
		BudgetAtRisk: m.budgetHit,
	}
	if m.profile != nil {
		s.Steps = m.profile.Steps
		s.ThresholdSec = m.profile.ThresholdSec
	}
	for _, st := range m.order {
		ss := StreamSnapshot{
			Stream:       st.name,
			Count:        st.count,
			PredictedSec: st.predicted,
			LastSec:      st.lastSec,
			EWMARelErr:   st.ewma.Value(),
			Alerted:      st.alerted,
			AlertStep:    st.alertStep,
		}
		if st.count > 0 {
			ss.MeanSec = st.obsSec / float64(st.count)
		}
		ss.CUSUMPos, ss.CUSUMNeg = st.cusum.Stat()
		s.Streams = append(s.Streams, ss)
	}
	s.Alerts = make([]Alert, len(m.alerts))
	copy(s.Alerts, m.alerts)
	if len(m.replans) > 0 {
		s.Replans = make([]ReplanRecord, len(m.replans))
		copy(s.Replans, m.replans)
	}
	if len(m.solves) > 0 {
		s.Solves = append([]obs.LedgerEvent(nil), m.solves...)
	}
	s.Flights = copyFlights(m.flights)
	return s
}

// Analyze replays a complete event set through a fresh monitor and returns
// the final snapshot — the post-hoc entry point behind runmon report and
// insitu-sched -monitor. profile may be nil; plan events in the ledger (or
// self-calibration) then supply the predictions.
func Analyze(events []obs.LedgerEvent, profile *Profile, cfg Config) Snapshot {
	m := NewMonitor(profile, cfg)
	for _, e := range events {
		m.Observe(e)
	}
	return m.Snapshot()
}

// DriftCount returns how many drift alerts the snapshot carries.
func (s Snapshot) DriftCount() int {
	n := 0
	for _, a := range s.Alerts {
		if a.Kind == AlertDrift {
			n++
		}
	}
	return n
}

// WriteText renders the snapshot as the terminal drift report / dashboard
// frame: a run header, the per-stream residual table, the budget
// projection, the alert list, then the solve rows, the replan timeline and
// every flight's gap timeline (each silent when the run has none).
func (s Snapshot) WriteText(w io.Writer) error {
	for _, section := range []func(io.Writer) error{s.writeStreams, s.writeSolves, s.writeReplans, s.writeFlights} {
		if err := section(w); err != nil {
			return err
		}
	}
	return nil
}

// writeStreams renders the run header, the residual table, the budget
// projection and the alerts.
func (s Snapshot) writeStreams(w io.Writer) error {
	app := s.App
	if app == "" {
		app = "(unnamed run)"
	}
	state := "running"
	if s.Ended {
		state = "ended"
	}
	steps := ""
	if s.Steps > 0 {
		steps = fmt.Sprintf("/%d", s.Steps)
	}
	if _, err := fmt.Fprintf(w, "run: %s  step %d%s  %s\n", app, s.Step, steps, state); err != nil {
		return err
	}
	if len(s.Streams) == 0 {
		_, err := fmt.Fprintln(w, "no monitored events yet")
		return err
	}
	if _, err := fmt.Fprintf(w, "%-26s %6s %12s %12s %9s %8s %8s  %s\n",
		"stream", "n", "pred_ms", "mean_ms", "ewma_err", "cusum+", "cusum-", "status"); err != nil {
		return err
	}
	for _, st := range s.Streams {
		status := "ok"
		if st.PredictedSec <= 0 {
			status = "calibrating"
		}
		if st.Alerted {
			status = fmt.Sprintf("DRIFT@%d", st.AlertStep)
		}
		if _, err := fmt.Fprintf(w, "%-26s %6d %12.3f %12.3f %8.1f%% %8.2f %8.2f  %s\n",
			st.Stream, st.Count, st.PredictedSec*1e3, st.MeanSec*1e3,
			st.EWMARelErr*100, st.CUSUMPos, st.CUSUMNeg, status); err != nil {
			return err
		}
	}
	if s.ThresholdSec > 0 {
		risk := "within budget"
		if s.BudgetAtRisk {
			risk = "BUDGET AT RISK"
		}
		if _, err := fmt.Fprintf(w, "budget: observed %.3fs, projected %.3fs of %.3fs threshold — %s\n",
			s.AnalysisSec, s.ProjectedSec, s.ThresholdSec, risk); err != nil {
			return err
		}
	}
	if len(s.Alerts) == 0 {
		_, err := fmt.Fprintln(w, "alerts: none")
		return err
	}
	if _, err := fmt.Fprintf(w, "alerts: %d\n", len(s.Alerts)); err != nil {
		return err
	}
	for _, a := range s.Alerts {
		var detail string
		switch a.Kind {
		case AlertBudget:
			detail = fmt.Sprintf("projected %.3fs exceeds threshold %.3fs", a.Observed, a.Predicted)
		default:
			detail = fmt.Sprintf("%s by %.0f%% (pred %.3fms, saw %.3fms, cusum %.2f)",
				a.Direction, abs(a.RelErr)*100, a.Predicted*1e3, a.Observed*1e3, a.CUSUM)
		}
		if _, err := fmt.Fprintf(w, "  [%s] step %-5d %-24s %s\n", a.Kind, a.Step, a.Stream, detail); err != nil {
			return err
		}
	}
	return nil
}

// writeSolves renders one row per retained solve event.
func (s Snapshot) writeSolves(w io.Writer) error {
	for _, e := range s.Solves {
		if _, err := fmt.Fprintf(w, "solve %-20s nodes=%-6.0f pivots=%-8.0f objective=%g (%.0f us)\n",
			e.Name, e.Args["nodes"], e.Args["pivots"], e.Args["objective"], e.Dur); err != nil {
			return err
		}
	}
	return nil
}

// writeReplans renders the replan timeline, one decision per line. Silent
// when the run never replanned, so unmonitored/static reports are unchanged.
func (s Snapshot) writeReplans(w io.Writer) error {
	if len(s.Replans) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "replans: %d\n", len(s.Replans)); err != nil {
		return err
	}
	for _, r := range s.Replans {
		var detail string
		if r.Adopted {
			detail = fmt.Sprintf("value %.2f -> %.2f, remaining cost %.3fs -> %.3fs of %.3fs budget",
				r.OldValue, r.NewValue, r.OldCostSec, r.NewCostSec, r.BudgetSec)
		} else {
			detail = fmt.Sprintf("kept incumbent (value %.2f, remaining budget %.3fs)",
				r.OldValue, r.BudgetSec)
		}
		if _, err := fmt.Fprintf(w, "  [%s] step %-5d %s/%-18s %s\n",
			r.Reason, r.Step, r.Trigger, r.Stream, detail); err != nil {
			return err
		}
	}
	return nil
}

// writeFlights renders the gap-closure timeline of every retained solver
// flight stream. Silent when the ledger carried no solveprog events, so
// reports over old ledgers are byte-identical to before.
func (s Snapshot) writeFlights(w io.Writer) error {
	for _, f := range s.Flights {
		if err := obs.WriteGapTimeline(w, f.Name, f.Records); err != nil {
			return err
		}
	}
	return nil
}

// Summary returns the one-line form used by log output and tests.
func (s Snapshot) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d stream(s), %d drift alert(s)", len(s.Streams), s.DriftCount())
	if s.BudgetAtRisk {
		b.WriteString(", budget at risk")
	}
	return b.String()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
