package runmon

import (
	"encoding/json"
	"net/http"

	"insitu/internal/obs"
)

// RunInfo is one row of the /runs listing and of runmon check.
type RunInfo struct {
	App     string  `json:"app,omitempty"`
	Runs    int     `json:"runs"`
	Step    int     `json:"step"`
	Steps   int     `json:"steps,omitempty"`
	Ended   bool    `json:"ended"`
	Streams int     `json:"streams"`
	Alerts  int     `json:"alerts"`
	AtRisk  bool    `json:"budget_at_risk"`
	EWMAMax float64 `json:"ewma_rel_err_max"`
}

// RunInfo condenses the snapshot to its /runs row.
func (s Snapshot) RunInfo() RunInfo {
	info := RunInfo{
		App:     s.App,
		Runs:    s.Runs,
		Step:    s.Step,
		Steps:   s.Steps,
		Ended:   s.Ended,
		Streams: len(s.Streams),
		Alerts:  len(s.Alerts),
		AtRisk:  s.BudgetAtRisk,
	}
	for _, st := range s.Streams {
		if e := abs(st.EWMARelErr); e > info.EWMAMax {
			info.EWMAMax = e
		}
	}
	return info
}

// NewServeMux builds the runmon HTTP surface over a live monitor, on top of
// the obs.NewServeMux endpoint set:
//
//	/            the drift report as HTML (the live dashboard)
//	/runs        JSON listing of the monitored run(s)
//	/drift.json  the full Snapshot as JSON
//	/solve.json  the latest observed solver flight stream as JSON
//	/solve       the live gap-closure curve page for that stream
//	/metrics     Prometheus text exposition of reg (runmon gauges included)
//	/healthz, /metrics.json, /debug/pprof/...  as in obs.NewServeMux
//
// reg should be the same registry handed to the monitor's Config.Metrics so
// the exported detector gauges are live.
func NewServeMux(m *Monitor, reg *obs.Registry) *http.ServeMux {
	mux := obs.NewServeMux(reg)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_ = m.Snapshot().WriteHTML(w)
	})
	mux.HandleFunc("/runs", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, []RunInfo{m.Snapshot().RunInfo()})
	})
	mux.HandleFunc("/drift.json", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, m.Snapshot())
	})
	// /solve.json and /solve serve the most recent solver flight stream the
	// monitor has observed (empty until a solveprog event arrives).
	snap := func() (string, []obs.SolveProgress) {
		flights := m.Flights()
		if len(flights) == 0 {
			return "", nil
		}
		last := flights[len(flights)-1]
		return last.Name, last.Records
	}
	mux.Handle("/solve.json", obs.FlightJSONHandler(snap))
	mux.Handle("/solve", obs.GapCurveHandler(snap))
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
