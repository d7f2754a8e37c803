package schedd

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"insitu/internal/core"
	"insitu/internal/scenario"
)

// oversizedBody is the request ROADMAP item 3 names: under 200 bytes on the
// wire, a 620k-column model and seconds of a solver slot if it were built.
const oversizedBody = `{"scenario":{"resources":{"steps":6000,"time_threshold_sec":100},"analyses":[{"name":"a","ct_sec":0.01,"ot_sec":0.002,"min_interval":1}]}}`

// hostileScenario is a small valid request with one piece replaced.
func hostileScenario(resources, analyses string) string {
	if resources == "" {
		resources = `{"steps":12,"time_threshold_sec":6,"mem_threshold_bytes":67108864}`
	}
	if analyses == "" {
		analyses = `[{"name":"a","ct_sec":1,"ot_sec":0.25,"min_interval":2},{"name":"b","ct_sec":0.5,"min_interval":3}]`
	}
	return `{"scenario":{"resources":` + resources + `,"analyses":` + analyses + `}}`
}

// TestHostileRequests: every request a client can get wrong, or get wrong on
// purpose, ends in its documented status with a well-formed document — never
// a hang, never a panic, never a solver slot spent on a model that cannot be
// built in reasonable time — and the server goes on answering.
func TestHostileRequests(t *testing.T) {
	valid := hostileScenario("", "")
	cases := []struct {
		name string
		body string
		code int
		kind string // "" for a 200
	}{
		{"oversized model", oversizedBody, 422, ErrUnprocessable},
		{"a billion steps", hostileScenario(`{"steps":1000000000}`, ""), 422, ErrUnprocessable},
		{"many analyses, oversized together", hostileScenario(`{"steps":1000}`,
			"["+strings.TrimSuffix(strings.Repeat(`{"name":"a","ct_sec":1,"min_interval":1},`, 6), ",")+"]"), 422, ErrUnprocessable},
		{"steps 0", hostileScenario(`{"steps":0,"time_threshold_sec":6}`, ""), 422, ErrUnprocessable},
		{"negative steps", hostileScenario(`{"steps":-5,"time_threshold_sec":6}`, ""), 422, ErrUnprocessable},
		{"zero thresholds", hostileScenario(`{"steps":12,"time_threshold_sec":0,"mem_threshold_bytes":0}`, ""), 200, ""},
		{"negative time threshold", hostileScenario(`{"steps":12,"time_threshold_sec":-1}`, ""), 422, ErrUnprocessable},
		{"negative memory threshold", hostileScenario(`{"steps":12,"mem_threshold_bytes":-1}`, ""), 422, ErrUnprocessable},
		{"cost 1e999", hostileScenario("", `[{"name":"a","ct_sec":1e999,"min_interval":1}]`), 400, ErrBadRequest},
		{"cost -1e999", hostileScenario("", `[{"name":"a","ct_sec":-1e999,"min_interval":1}]`), 400, ErrBadRequest},
		{"negative cost", hostileScenario("", `[{"name":"a","ct_sec":-1,"min_interval":1}]`), 422, ErrUnprocessable},
		{"cost NaN", hostileScenario("", `[{"name":"a","ct_sec":NaN,"min_interval":1}]`), 400, ErrBadRequest},
		{"min_interval 0", hostileScenario("", `[{"name":"a","ct_sec":1,"min_interval":0}]`), 200, ""},
		{"negative min_interval", hostileScenario("", `[{"name":"a","ct_sec":1,"min_interval":-4}]`), 200, ""},
		{"empty analyses", hostileScenario("", `[]`), 422, ErrUnprocessable},
		{"empty name", hostileScenario("", `[{"name":"","ct_sec":1,"min_interval":1}]`), 422, ErrUnprocessable},
		{"duplicate names", hostileScenario("", `[{"name":"a","ct_sec":1,"min_interval":2},{"name":"a","ct_sec":0.5,"min_interval":3}]`), 422, ErrUnprocessable},
		{"negative memory cost", hostileScenario("", `[{"name":"a","ct_sec":1,"fm_bytes":-1,"min_interval":1}]`), 422, ErrUnprocessable},
		{"negative weight", hostileScenario("", `[{"name":"a","ct_sec":1,"weight":-2,"min_interval":1}]`), 422, ErrUnprocessable},
		{"negative bandwidth", hostileScenario(`{"steps":12,"bandwidth_bytes_per_sec":-1}`, ""), 422, ErrUnprocessable},
		{"1 MiB + 1 behind a valid value", valid + strings.Repeat(" ", maxBodyBytes+1-len(valid)), 400, ErrBadRequest},
		{"exactly 1 MiB", valid + strings.Repeat(" ", maxBodyBytes-len(valid)), 200, ""},
		{"trailing garbage", valid + `}}garbage{"`, 200, ""},
		{"truncated", valid[:len(valid)-9], 400, ErrBadRequest},
		{"empty body", "", 400, ErrBadRequest},
		{"top-level array", `[1,2,3]`, 400, ErrBadRequest},
		{"top-level string", `"scenario"`, 400, ErrBadRequest},
		{"top-level null", `null`, 422, ErrUnprocessable},
		{"scenario of the wrong type", `{"scenario":7}`, 400, ErrBadRequest},
	}

	s := New(Config{})
	h := s.Handler()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			queued := histogramCount(s, "schedd_queue_seconds")
			done := make(chan *memWriter, 1)
			go func() { done <- serve(h, "", []byte(c.body)) }()
			var w *memWriter
			select {
			case w = <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("no answer within 2 s")
			}
			var doc SolveResponse
			if err := json.Unmarshal(w.buf.Bytes(), &doc); err != nil {
				t.Fatalf("status %d with a body that does not decode: %v\n%s", w.code, err, w.buf.Bytes())
			}
			if w.code != c.code || doc.Schema != SchemaVersion || doc.RequestID == "" {
				t.Fatalf("status %d (want %d), schedd_v %d, request_id %q: %s", w.code, c.code, doc.Schema, doc.RequestID, w.buf.Bytes())
			}
			if c.kind == "" {
				if doc.Error != nil || len(doc.Schedules) == 0 {
					t.Fatalf("a 200 with error %+v and %d schedules", doc.Error, len(doc.Schedules))
				}
				return
			}
			if doc.Error == nil || doc.Error.Kind != c.kind || doc.Error.Message == "" {
				t.Fatalf("error %+v, want kind %s", doc.Error, c.kind)
			}
			// No refused request is granted a solver slot: what core would
			// reject is rejected by its own validators before admission.
			if got := histogramCount(s, "schedd_queue_seconds"); got != queued {
				t.Fatalf("a refused request went through admission (%d -> %d slots granted): %s", queued, got, doc.Error.Message)
			}
		})
	}

	if n := metricValue(t, s.Registry(), "schedd_inflight", nil); n != 0 || len(s.sem) != 0 {
		t.Fatalf("after the table: %v requests in flight, %d solver slots held", n, len(s.sem))
	}
	if w := serve(h, "", []byte(valid)); w.code != http.StatusOK || !isHit(w) {
		t.Fatalf("an ordinary request afterwards: status %d, hit %v", w.code, isHit(w))
	}
}

// TestTrailingGarbageIsRecognised: bytes after the first JSON value are
// ignored by the decoder but are part of the body, so the same body with the
// same garbage is a hit by body, with the first answer's schedules.
func TestTrailingGarbageIsRecognised(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	body := []byte(hostileScenario("", "") + "\x00 not json")
	first := serve(h, "", body)
	want := schedulesOf(t, first)
	if isHit(first) {
		t.Fatal("first request hit")
	}
	if _, _, ok := s.cache.getBody(body); !ok {
		t.Fatal("the garbage-suffixed body is not the remembered one")
	}
	if w := serve(h, "", body); !isHit(w) || schedulesOf(t, w) != want {
		t.Fatal("the same bytes again were not a hit with the same schedules")
	}
}

// TestOversizedModelRefusedFast: the refusal is arithmetic on the request,
// not a build that got interrupted, and names the estimate and the limit.
func TestOversizedModelRefusedFast(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	best := time.Hour
	var w *memWriter
	for i := 0; i < 5; i++ {
		start := time.Now()
		w = serve(h, "", []byte(oversizedBody))
		best = min(best, time.Since(start))
	}
	if w.code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d: %s", w.code, w.buf.Bytes())
	}
	if best > 10*time.Millisecond {
		t.Fatalf("refusal took %v at best, want under 10 ms", best)
	}
	var doc SolveResponse
	if err := json.Unmarshal(w.buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc.Error.Message, fmt.Sprint(maxModelColumns)) || !strings.Contains(doc.Error.Message, "columns") {
		t.Fatalf("message does not name the limit: %q", doc.Error.Message)
	}
	if n := histogramCount(s, "schedd_queue_seconds"); n != 0 {
		t.Fatalf("%d solver slots granted to refused requests", n)
	}
}

// TestCommittedScenariosFitTheLimit: every scenario file in the repository is
// at least five times under maxModelColumns.
func TestCommittedScenariosFitTheLimit(t *testing.T) {
	files, err := filepath.Glob("../experiments/testdata/golden/scenario_*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden scenarios found: %v", err)
	}
	for _, path := range files {
		specs, res, err := scenario.LoadSpecs(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := core.EstimateColumns(specs, res, maxModelColumns); 5*n > maxModelColumns {
			t.Errorf("%s: %d columns estimated, less than 5x under the limit %d", path, n, maxModelColumns)
		}
	}
}

// TestSolverPanicIsContained: a panic below the solve reaches the leader and
// every coalesced follower as one solver_error, leaves the leader's flight
// recording readable, releases the slot, and the next request solves.
func TestSolverPanicIsContained(t *testing.T) {
	s := New(Config{MaxInFlight: 1})
	h := s.Handler()
	joined := make(chan struct{})
	s.coreSolve = func(specs []core.AnalysisSpec, res core.Resources, opts core.SolveOptions) (*core.Recommendation, error) {
		<-joined
		if _, err := core.Solve(specs, res, opts); err != nil { // fills the flight recorder
			return nil, err
		}
		panic("boom at node 7")
	}
	body := marshalRequest(t, SolveRequest{Scenario: testScenario()})

	var wg sync.WaitGroup
	replies := make([]*memWriter, 3)
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i] = serve(h, fmt.Sprintf("panic-%d", i), body)
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for metricValue(t, s.Registry(), "schedd_coalesced_total", nil) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("followers never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	close(joined)
	wg.Wait()

	leaders := 0
	for i, w := range replies {
		var doc SolveResponse
		if err := json.Unmarshal(w.buf.Bytes(), &doc); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if w.code != http.StatusInternalServerError || doc.Error == nil || doc.Error.Kind != ErrSolver {
			t.Fatalf("reply %d: status %d error %+v, want a 500 solver_error", i, w.code, doc.Error)
		}
		if !strings.Contains(doc.Error.Message, "boom at node 7") || strings.Contains(doc.Error.Message, "goroutine") {
			t.Fatalf("reply %d: message must carry the panic value and no stack: %q", i, doc.Error.Message)
		}
		// Only the leader ran a solve, so only its record has a recording.
		req, _ := http.NewRequest(http.MethodGet, "/v1/requests/"+doc.RequestID+"/solve.json", nil)
		fw := newMemWriter()
		h.ServeHTTP(fw, req)
		if fw.code == http.StatusOK {
			leaders++
			var flight struct {
				Events []json.RawMessage `json:"events"`
			}
			if err := json.Unmarshal(fw.buf.Bytes(), &flight); err != nil || len(flight.Events) == 0 {
				t.Fatalf("leader's flight recording: %d events, %v", len(flight.Events), err)
			}
		}
	}
	if leaders != 1 {
		t.Fatalf("%d requests kept a flight recording, want the leader's only", leaders)
	}
	if n := metricValue(t, s.Registry(), "schedd_errors_total", map[string]string{"kind": ErrSolver}); n != 3 {
		t.Fatalf("schedd_errors_total{solver_error} = %v, want 3", n)
	}
	if n := metricValue(t, s.Registry(), "schedd_inflight", nil); n != 0 || len(s.sem) != 0 {
		t.Fatalf("%v requests in flight, %d solver slots held after the panic", n, len(s.sem))
	}

	s.coreSolve = core.Solve
	if w := serve(h, "after", body); w.code != http.StatusOK || isHit(w) {
		t.Fatalf("next request: status %d hit %v, want a 200 that solved", w.code, isHit(w))
	}
	// Process, the engine of `schedd once`, survives the same way.
	s.coreSolve = func([]core.AnalysisSpec, core.Resources, core.SolveOptions) (*core.Recommendation, error) {
		panic(fmt.Errorf("index out of range"))
	}
	other := testScenario()
	other.Resources.TimeSec = 5
	resp, code := s.Process(context.Background(), "", SolveRequest{Scenario: other})
	if code != http.StatusInternalServerError || resp.Error == nil || resp.Error.Kind != ErrSolver {
		t.Fatalf("Process after a panic: status %d error %+v", code, resp.Error)
	}
}
