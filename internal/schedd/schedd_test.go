package schedd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"insitu/internal/obs"
	"insitu/internal/scenario"
)

func testScenario() scenario.Problem {
	return scenario.Problem{
		Resources: scenario.Envelope{Steps: 12, TimeSec: 6, MemBytes: 64 << 20, Bandwidth: 1 << 20},
		Analyses: []scenario.Analysis{
			{Name: "descriptors", CTSec: 1, OTSec: 0.25, CMBytes: 8 << 20, OMBytes: 4 << 20, MinInterval: 2, Weight: 2},
			{Name: "msd", CTSec: 0.5, CMBytes: 4 << 20, MinInterval: 3},
			{Name: "expensive", CTSec: 50, MinInterval: 1},
		},
	}
}

func postSolve(t *testing.T, srv *httptest.Server, body SolveRequest, header string) (*http.Response, SolveResponse) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", srv.URL+"/v1/solve", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if header != "" {
		req.Header.Set(obs.RequestIDHeader, header)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func metricValue(t *testing.T, reg *obs.Registry, name string, labels map[string]string) float64 {
	t.Helper()
	for _, m := range reg.Snapshot() {
		if m.Name != name {
			continue
		}
		if len(labels) == 0 && len(m.Labels) != 0 {
			continue
		}
		match := true
		for k, v := range labels {
			if m.Labels[k] != v {
				match = false
			}
		}
		if match {
			return m.Value
		}
	}
	return 0
}

// TestSolveCacheLedger is the acceptance-criteria test: a request carries
// its ID end to end, the ledger holds the request's root span with the
// nested solve span and solveprog flight events, RED and cache metrics are
// visible, and a repeated identical request is served from cache with
// identical schedules and no new solver nodes.
func TestSolveCacheLedger(t *testing.T) {
	var buf bytes.Buffer
	ledger := obs.NewEventLog(&buf)
	s := New(Config{Ledger: ledger})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp1, out1 := postSolve(t, srv, SolveRequest{Scenario: testScenario()}, "req-alpha")
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first solve = %d: %+v", resp1.StatusCode, out1.Error)
	}
	if out1.RequestID != "req-alpha" || resp1.Header.Get(obs.RequestIDHeader) != "req-alpha" {
		t.Fatalf("request ID not propagated: body %q header %q", out1.RequestID, resp1.Header.Get(obs.RequestIDHeader))
	}
	if out1.CacheHit {
		t.Fatal("first request cannot be a cache hit")
	}
	if out1.Solver.Nodes == 0 || len(out1.Schedules) != 3 {
		t.Fatalf("first solve looks empty: %+v", out1)
	}
	if !strings.HasPrefix(out1.Fingerprint, "sha256:") {
		t.Fatalf("fingerprint missing: %q", out1.Fingerprint)
	}
	// The expensive analysis cannot fit the 6 s budget; the solver must
	// disable it and keep the cheap ones.
	for _, sch := range out1.Schedules {
		if sch.Name == "expensive" && sch.Enabled {
			t.Fatal("expensive analysis should be disabled")
		}
		if sch.Name == "descriptors" && !sch.Enabled {
			t.Fatal("descriptors should be enabled")
		}
	}

	nodesAfterFirst := metricValue(t, s.Registry(), "schedd_solver_nodes_total", nil)
	if nodesAfterFirst == 0 {
		t.Fatal("solver node counter not incremented")
	}

	resp2, out2 := postSolve(t, srv, SolveRequest{Scenario: testScenario()}, "req-beta")
	if resp2.StatusCode != http.StatusOK || !out2.CacheHit {
		t.Fatalf("second request: code %d cache_hit %v", resp2.StatusCode, out2.CacheHit)
	}
	if out2.RequestID != "req-beta" {
		t.Fatalf("cached response carries wrong ID %q", out2.RequestID)
	}
	if !reflect.DeepEqual(out1.Schedules, out2.Schedules) || out1.Objective != out2.Objective {
		t.Fatal("cached response differs from the original solve")
	}
	if got := metricValue(t, s.Registry(), "schedd_solver_nodes_total", nil); got != nodesAfterFirst {
		t.Fatalf("cache hit ran the solver: nodes %v -> %v", nodesAfterFirst, got)
	}
	if hits := metricValue(t, s.Registry(), "schedd_cache_hits_total", nil); hits != 1 {
		t.Fatalf("cache hits = %v, want 1", hits)
	}
	if reqs := metricValue(t, s.Registry(), "schedd_requests_total", nil); reqs != 2 {
		t.Fatalf("requests_total = %v, want 2", reqs)
	}

	// RED + cache counters visible on the Prometheus exposition.
	var prom bytes.Buffer
	if err := s.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"schedd_requests_total 2", "schedd_cache_hits_total 1",
		"schedd_cache_misses_total 1", "schedd_request_seconds_count 2", "schedd_solve_seconds_count 1"} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}

	// Ledger: per-request root reqlog events, with the solve span and the
	// solveprog flight stream nested under the first request's ID.
	events, err := obs.ReadLedger(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{} // type|name -> count
	for _, e := range events {
		counts[e.Type+"|"+e.Name]++
	}
	if counts[obs.LedgerReqLog+"|req-alpha"] != 1 || counts[obs.LedgerReqLog+"|req-beta"] != 1 {
		t.Fatalf("reqlog roots missing: %v", counts)
	}
	if counts[obs.LedgerSolve+"|req-alpha"] != 1 {
		t.Fatalf("solve span for req-alpha missing: %v", counts)
	}
	if counts[obs.LedgerSolveProg+"|req-alpha"] == 0 {
		t.Fatalf("solveprog flight events for req-alpha missing: %v", counts)
	}
	if counts[obs.LedgerSolve+"|req-beta"] != 0 {
		t.Fatal("cache hit must not ledger a solve span")
	}
	// Each reqlog line reads back as the request's GET /v1/requests entry,
	// less the fingerprint the ledger does not carry.
	listing, err := srv.Client().Get(srv.URL + "/v1/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer listing.Body.Close()
	var recent []reqRecord // newest first
	if err := json.NewDecoder(listing.Body).Decode(&recent); err != nil || len(recent) != 2 {
		t.Fatalf("/v1/requests: %d entries, %v", len(recent), err)
	}
	var logged []reqRecord
	for _, e := range events {
		var r reqRecord
		if obs.ReadRecord(e, obs.LedgerReqLog, &r) {
			logged = append([]reqRecord{r}, logged...)
		}
	}
	for i := range recent {
		recent[i].Fingerprint = ""
	}
	if !reflect.DeepEqual(logged, recent) || !logged[0].CacheHit {
		t.Fatalf("reqlog lines read back as\n%+v\nwant the /v1/requests entries\n%+v", logged, recent)
	}
}

func TestExplainRoundTrip(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, out := postSolve(t, srv, SolveRequest{Scenario: testScenario(), Explain: true}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain solve = %d: %+v", resp.StatusCode, out.Error)
	}
	if out.RequestID == "" {
		t.Fatal("server did not mint a request ID")
	}
	if out.Explain == nil || len(out.Explain.Attributions) != 3 {
		t.Fatalf("explain summary missing: %+v", out.Explain)
	}
	var exp *AttributionJSON
	for i := range out.Explain.Attributions {
		if out.Explain.Attributions[i].Name == "expensive" {
			exp = &out.Explain.Attributions[i]
		}
	}
	if exp == nil || exp.Enabled {
		t.Fatalf("expensive attribution: %+v", exp)
	}

	// Explain and plain responses cache under different keys.
	_, plain := postSolve(t, srv, SolveRequest{Scenario: testScenario()}, "")
	if plain.CacheHit || plain.Explain != nil {
		t.Fatalf("plain request after explain: hit=%v explain=%v", plain.CacheHit, plain.Explain)
	}
	_, again := postSolve(t, srv, SolveRequest{Scenario: testScenario(), Explain: true}, "")
	if !again.CacheHit || again.Explain == nil {
		t.Fatalf("repeated explain request: hit=%v explain present=%v", again.CacheHit, again.Explain != nil)
	}
}

func TestErrorTaxonomy(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := srv.Client().Post(srv.URL+"/v1/solve", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	var out SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || out.Error == nil || out.Error.Kind != ErrBadRequest {
		t.Fatalf("bad JSON: code %d error %+v", resp.StatusCode, out.Error)
	}
	if out.RequestID == "" {
		t.Fatal("error responses still carry a request ID")
	}

	respEmpty, outEmpty := postSolve(t, srv, SolveRequest{}, "")
	if respEmpty.StatusCode != http.StatusUnprocessableEntity || outEmpty.Error.Kind != ErrUnprocessable {
		t.Fatalf("empty scenario: code %d error %+v", respEmpty.StatusCode, outEmpty.Error)
	}

	// A scenario the core layer rejects (no steps) is unprocessable too.
	bad := testScenario()
	bad.Resources.Steps = 0
	respBad, outBad := postSolve(t, srv, SolveRequest{Scenario: bad}, "")
	if respBad.StatusCode != http.StatusUnprocessableEntity || outBad.Error.Kind != ErrUnprocessable {
		t.Fatalf("invalid scenario: code %d error %+v", respBad.StatusCode, outBad.Error)
	}

	if got := metricValue(t, s.Registry(), "schedd_errors_total", map[string]string{"kind": ErrBadRequest}); got != 1 {
		t.Fatalf("bad_request errors = %v, want 1", got)
	}
	if got := metricValue(t, s.Registry(), "schedd_errors_total", map[string]string{"kind": ErrUnprocessable}); got != 2 {
		t.Fatalf("unprocessable errors = %v, want 2", got)
	}
}

// TestQueueTimeout fills the solver pool directly and checks the admission
// rejection is fast, classified, and counted.
func TestQueueTimeout(t *testing.T) {
	s := New(Config{MaxInFlight: 1, QueueTimeout: 20 * time.Millisecond})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	s.sem <- struct{}{} // occupy the only solver slot
	defer func() { <-s.sem }()

	resp, out := postSolve(t, srv, SolveRequest{Scenario: testScenario()}, "")
	if resp.StatusCode != http.StatusServiceUnavailable || out.Error == nil || out.Error.Kind != ErrQueueTimeout {
		t.Fatalf("saturated pool: code %d error %+v", resp.StatusCode, out.Error)
	}
	if got := metricValue(t, s.Registry(), "schedd_rejected_total", map[string]string{"reason": "queue_timeout"}); got != 1 {
		t.Fatalf("rejected_total = %v, want 1", got)
	}
}

// TestCoalesce holds the solver slot while two identical requests arrive:
// the second must coalesce onto the first's solve, so the solver runs once.
func TestCoalesce(t *testing.T) {
	s := New(Config{MaxInFlight: 1, QueueTimeout: 10 * time.Second})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	s.sem <- struct{}{} // park the leader in admission
	var wg sync.WaitGroup
	outs := make([]SolveResponse, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, outs[i] = postSolve(t, srv, SolveRequest{Scenario: testScenario()}, fmt.Sprintf("req-%d", i))
		}(i)
	}
	// Wait until the follower has coalesced onto the in-flight call, then
	// release the slot.
	deadline := time.Now().Add(5 * time.Second)
	for metricValue(t, s.Registry(), "schedd_coalesced_total", nil) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	<-s.sem
	wg.Wait()

	if outs[0].Error != nil || outs[1].Error != nil {
		t.Fatalf("coalesced solves failed: %+v %+v", outs[0].Error, outs[1].Error)
	}
	if !reflect.DeepEqual(outs[0].Schedules, outs[1].Schedules) {
		t.Fatal("coalesced responses differ")
	}
	if outs[0].Coalesced == outs[1].Coalesced {
		t.Fatalf("exactly one request should be marked coalesced: %v %v", outs[0].Coalesced, outs[1].Coalesced)
	}
	if n := solves(s); n != 1 {
		t.Fatalf("coalesced pair ran %v solves", n)
	}
	// Control: the reading moves with real solves. A third request that
	// differs in its threshold shares nothing and runs the second one.
	other := testScenario()
	other.Resources.TimeSec *= 2
	if _, out := postSolve(t, srv, SolveRequest{Scenario: other}, "req-2"); out.Error != nil {
		t.Fatalf("third request failed: %+v", out.Error)
	}
	if n := solves(s); n != 2 {
		t.Fatalf("%v solves after an unrelated third request, want 2", n)
	}
}

func TestReadyzAndRequestRoutes(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get("/readyz"); code != http.StatusOK || body != "ready\n" {
		t.Fatalf("/readyz = %d %q", code, body)
	}
	_, out := postSolve(t, srv, SolveRequest{Scenario: testScenario()}, "req-x")
	if out.Error != nil {
		t.Fatalf("solve failed: %+v", out.Error)
	}

	code, body := get("/v1/requests")
	if code != http.StatusOK || !strings.Contains(body, `"request_id": "req-x"`) {
		t.Fatalf("/v1/requests = %d %q", code, body)
	}

	code, body = get("/v1/requests/req-x/solve.json")
	if code != http.StatusOK {
		t.Fatalf("/v1/requests/req-x/solve.json = %d", code)
	}
	var flight struct {
		Schema int               `json:"solveprog_v"`
		Name   string            `json:"name"`
		Events []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &flight); err != nil {
		t.Fatal(err)
	}
	if flight.Schema != obs.SolveProgSchemaVersion || flight.Name != "req-x" || len(flight.Events) == 0 {
		t.Fatalf("flight doc: schema %d name %q events %d", flight.Schema, flight.Name, len(flight.Events))
	}

	if code, _ := get("/v1/requests/nope/solve.json"); code != http.StatusNotFound {
		t.Fatalf("unknown request flight = %d", code)
	}

	// A cache hit still serves the original solve's flight under its own ID.
	_, hit := postSolve(t, srv, SolveRequest{Scenario: testScenario()}, "req-y")
	if !hit.CacheHit {
		t.Fatal("expected cache hit")
	}
	if code, _ := get("/v1/requests/req-y/solve.json"); code != http.StatusOK {
		t.Fatalf("cache-hit flight route = %d", code)
	}

	s.Drain()
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d", code)
	}
}
