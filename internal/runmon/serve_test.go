package runmon

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"insitu/internal/obs"
)

func serveGet(t *testing.T, mux *http.ServeMux, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Code, string(body)
}

func TestServeMuxEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMonitor(testProfile(), Config{Metrics: reg})
	m.Observe(obs.LedgerEvent{Type: obs.LedgerRunStart, Name: "mdsim/serve"})
	for step := 1; step <= 20; step++ {
		m.Observe(stepEvent(step, 0.030)) // sustained 3x drift
	}
	mux := NewServeMux(m, reg)

	code, body := serveGet(t, mux, "/")
	if code != http.StatusOK || !strings.Contains(body, "Run drift report") {
		t.Fatalf("/ -> %d %q", code, body[:min(len(body), 80)])
	}

	code, body = serveGet(t, mux, "/runs")
	if code != http.StatusOK {
		t.Fatalf("/runs -> %d", code)
	}
	var runs []RunInfo
	if err := json.Unmarshal([]byte(body), &runs); err != nil {
		t.Fatalf("/runs not JSON: %v\n%s", err, body)
	}
	if len(runs) != 1 || runs[0].App != "mdsim/serve" || runs[0].Step != 20 || runs[0].Alerts == 0 {
		t.Fatalf("/runs = %+v", runs)
	}

	code, body = serveGet(t, mux, "/drift.json")
	if code != http.StatusOK {
		t.Fatalf("/drift.json -> %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/drift.json not JSON: %v", err)
	}
	if snap.DriftCount() != 1 || len(snap.Streams) != 1 {
		t.Fatalf("/drift.json = %+v", snap)
	}

	// The obs endpoints are still mounted underneath.
	code, body = serveGet(t, mux, "/metrics")
	if code != http.StatusOK || !strings.Contains(body, "runmon_cusum_pos") {
		t.Fatalf("/metrics -> %d, missing runmon gauges:\n%s", code, body)
	}

	if code, _ := serveGet(t, mux, "/nope"); code != http.StatusNotFound {
		t.Fatalf("/nope -> %d, want 404", code)
	}
}

// TestSnapshotRunInfo: the /runs row condenses the snapshot header, its
// stream and alert counts, and the worst residual.
func TestSnapshotRunInfo(t *testing.T) {
	s := driftedSnapshot(t)
	info := s.RunInfo()
	if info.App != "mdsim/unit" || info.Runs != 1 || info.Step != 60 || info.Steps != 60 || !info.Ended {
		t.Fatalf("run info header = %+v", info)
	}
	if info.Streams != len(s.Streams) || info.Alerts != len(s.Alerts) || info.Alerts == 0 || info.EWMAMax <= 0 {
		t.Fatalf("run info counts = %+v", info)
	}
	if (Snapshot{}).RunInfo() != (RunInfo{}) {
		t.Fatal("empty snapshot has a non-empty row")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestServeMuxFlightRoutes(t *testing.T) {
	m := NewMonitor(nil, Config{})
	mux := NewServeMux(m, nil)

	// Before any solveprog event the routes serve empty documents.
	code, body := serveGet(t, mux, "/solve")
	if code != http.StatusOK || !strings.Contains(body, "no solveprog events") {
		t.Fatalf("/solve before flights -> %d %q", code, body)
	}

	for _, e := range flightEvents("plan") {
		m.Observe(e)
	}
	code, body = serveGet(t, mux, "/solve.json")
	if code != http.StatusOK {
		t.Fatalf("/solve.json -> %d", code)
	}
	var doc struct {
		Schema int                 `json:"solveprog_v"`
		Name   string              `json:"name"`
		Events []obs.SolveProgress `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/solve.json not JSON: %v\n%s", err, body)
	}
	if doc.Schema != obs.SolveProgSchemaVersion || doc.Name != "plan" || len(doc.Events) != 3 {
		t.Fatalf("/solve.json doc = %+v", doc)
	}
	code, body = serveGet(t, mux, "/solve")
	if code != http.StatusOK || !strings.Contains(body, "<svg") || !strings.Contains(body, "plan") {
		t.Fatalf("/solve -> %d %q", code, body[:min(len(body), 120)])
	}
}
