// Package schedd is the scheduling-as-a-service tier: an HTTP/JSON daemon
// that accepts scenario documents (the same files insitu-sched and
// schedexplain read), solves them through the parallel core/milp stack, and
// returns schedules plus optional explain attributions. It is the repo's
// answer to the paper's premise that optimal schedules are cheap enough to
// answer many what-if queries: the daemon memoizes identical what-ifs behind
// a canonical-fingerprint solution cache, coalesces concurrent duplicates
// onto one solve, and admission-controls the solver pool so a burst of
// queries degrades into fast 503s instead of an unbounded pile-up.
//
// Observability is the headline layer, not a retrofit. Every request carries
// a propagated request ID (obs.RequestIDHeader in, response field + header
// out) that travels by context through campaign→core→milp→lp, so solver
// pprof phase labels nest under a per-request label and the flight-recorder
// stream of each solve is attributed to the request that paid for it. The
// server reports RED metrics (rate, error taxonomy, duration histograms) and
// cache hit/miss/age/eviction telemetry on an obs.Registry, appends a
// schema-versioned reqlog ledger (one root event per request, with the
// solve span and solveprog flight events nested under the same request ID),
// and serves per-request flight JSON at /v1/requests/{id}/solve.json next to
// the uniform /healthz, /readyz, /metrics, and /debug/pprof routes.
package schedd

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"insitu/internal/core"
	"insitu/internal/milp"
	"insitu/internal/obs"
	"insitu/internal/scenario"
)

// SchemaVersion versions the request/response JSON ("schedd_v").
const SchemaVersion = 1

// maxBodyBytes caps a request body; scenario documents are a few KiB. The
// body is read whole before anything is decoded, so one byte more is a
// bad_request even when the first JSON value ends earlier.
const maxBodyBytes = 1 << 20

// maxRememberedBody caps the request body a cache entry keeps to recognise a
// byte-identical repeat (cache.getBody); a larger one still hits through its
// fingerprint.
const maxRememberedBody = 16 << 10

// maxModelColumns is the largest compact model (core.EstimateColumns) a
// request may ask for; past it the request is unprocessable before it takes
// a solver slot. One analysis at Steps/MinInterval = 1000 is 42k columns and
// 0.1 s of a slot, and no committed scenario, golden or test builds over 30k;
// the limit is one analysis at Steps/MinInterval = 2800, about a second, and
// the cost grows as (Steps/MinInterval)^1.5 from there.
const maxModelColumns = 200_000

// recentRequests caps the in-memory request registry behind /v1/requests.
const recentRequests = 64

// Error taxonomy: every failed request is classified with one of these
// kinds, reported in the response error object and counted on
// schedd_errors_total{kind=...}.
const (
	ErrBadRequest    = "bad_request"   // 400: body unreadable or not scenario JSON
	ErrUnprocessable = "unprocessable" // 422: scenario parsed but cannot be solved
	ErrSolver        = "solver_error"  // 500: the solver failed unexpectedly
	ErrQueueTimeout  = "queue_timeout" // 503: no solver slot within QueueTimeout
	ErrCanceled      = "canceled"      // 499: client went away mid-request
)

// Config tunes the daemon. The zero value serves with defaults.
type Config struct {
	// MaxInFlight is the solver-pool width: how many solves may run
	// concurrently (default 4). Distinct concurrent requests share this
	// pool; requests past the limit queue.
	MaxInFlight int
	// QueueTimeout bounds how long a request waits for a solver slot before
	// it is rejected with a queue_timeout error (default 5s).
	QueueTimeout time.Duration
	// CacheEntries caps the LRU solution cache (default 128 scenarios).
	CacheEntries int
	// Registry receives the RED and cache metrics (default: a fresh one).
	Registry *obs.Registry
	// Ledger, when non-nil, receives the reqlog access ledger: per request
	// one root reqlog event plus, for solves, a solve span and the solveprog
	// flight stream, all named by the request ID.
	Ledger *obs.EventLog
	// Now is the clock (default time.Now); injectable for tests.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 5 * time.Second
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// SolveRequest is the POST /v1/solve body.
type SolveRequest struct {
	Scenario scenario.Problem `json:"scenario"`
	// Explain additionally runs the decision-attribution layer (core.Explain)
	// and attaches its summary to the response.
	Explain bool `json:"explain,omitempty"`
}

// ScheduleJSON is one analysis schedule of the response.
type ScheduleJSON struct {
	Name             string  `json:"name"`
	Enabled          bool    `json:"enabled"`
	Count            int     `json:"count"`
	OutputEvery      int     `json:"output_every,omitempty"`
	Outputs          int     `json:"outputs,omitempty"`
	AnalysisSteps    []int   `json:"analysis_steps,omitempty"`
	OutputSteps      []int   `json:"output_steps,omitempty"`
	PredictedTimeSec float64 `json:"predicted_time_sec"`
	PeakMemoryBytes  int64   `json:"peak_memory_bytes"`
}

// SolverInfo summarizes the branch-and-bound search behind a response. The
// warm/fallback/dual fields expose the revised-simplex warm-start health:
// WarmSolves counts node re-solves answered from a warm basis (of which
// WarmInfeasibles were pruned on a dual infeasibility certificate), and
// FallbackColds counts warm attempts that fell through to a cold solve.
type SolverInfo struct {
	Nodes        int     `json:"nodes"`
	Relaxations  int     `json:"relaxations"`
	Pivots       int     `json:"pivots"`
	SolveTimeSec float64 `json:"solve_time_sec"`
	Bound        float64 `json:"bound"`

	WarmSolves       int `json:"warm_solves"`
	ColdSolves       int `json:"cold_solves"`
	FallbackColds    int `json:"fallback_colds,omitempty"`
	WarmInfeasibles  int `json:"warm_infeasibles,omitempty"`
	PrimalPivots     int `json:"primal_pivots,omitempty"`
	DualPivots       int `json:"dual_pivots,omitempty"`
	Refactorizations int `json:"refactorizations,omitempty"`
	EtaPeak          int `json:"eta_peak,omitempty"`
}

// AttributionJSON is the wire form of one core.Attribution. BindingSlack is
// the slack left on the Binding resource, absent when it is zero (a
// min-interval binding, a disabled analysis) and when it is unbounded (that
// resource's threshold is unset).
type AttributionJSON struct {
	Name            string   `json:"name"`
	Enabled         bool     `json:"enabled"`
	Count           int      `json:"count"`
	MaxCount        int      `json:"max_count"`
	Binding         string   `json:"binding,omitempty"`
	BindingSlack    *float64 `json:"binding_slack,omitempty"`
	ForcedFeasible  bool     `json:"forced_feasible,omitempty"`
	ForcedDelta     float64  `json:"forced_delta,omitempty"`
	ForcedViolation string   `json:"forced_violation,omitempty"`
	Conflict        []string `json:"conflict,omitempty"`
}

// ExplainJSON is the response's explain summary. A slack is absent when its
// threshold is unset: no budget, so no finite slack to report.
type ExplainJSON struct {
	TimeSlackSec  *float64          `json:"time_slack_sec,omitempty"`
	MemSlackBytes *float64          `json:"mem_slack_bytes,omitempty"`
	Attributions  []AttributionJSON `json:"attributions"`
}

// ErrorJSON classifies a failed request.
type ErrorJSON struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

// responseHead is the part of a reply that belongs to one request; the rest
// of a successful SolveResponse is a function of the cached solve alone.
type responseHead struct {
	Schema      int     `json:"schedd_v"`
	RequestID   string  `json:"request_id"`
	Fingerprint string  `json:"fingerprint,omitempty"`
	CacheHit    bool    `json:"cache_hit"`
	Coalesced   bool    `json:"coalesced,omitempty"`
	CacheAgeSec float64 `json:"cache_age_sec,omitempty"`
}

// SolveResponse is the POST /v1/solve reply (also the /v1/requests/{id}
// record, minus the schedules). Its first six keys are the embedded request
// head (schedd_v, request_id, fingerprint, cache_hit, coalesced,
// cache_age_sec).
type SolveResponse struct {
	responseHead

	Objective       float64        `json:"objective"`
	TotalTimeSec    float64        `json:"total_time_sec"`
	PeakMemoryBytes int64          `json:"peak_memory_bytes"`
	Schedules       []ScheduleJSON `json:"schedules"`
	Solver          SolverInfo     `json:"solver"`
	Explain         *ExplainJSON   `json:"explain,omitempty"`

	Error *ErrorJSON `json:"error,omitempty"`
}

// reqRecord is one entry of the recent-request registry, and the ledger
// record (obs.RecordEvent) of its reqlog event: GET /v1/requests and the
// reqlog line name the same fields the same way.
type reqRecord struct {
	ID          string  `json:"request_id" ledger:"name"`
	Fingerprint string  `json:"fingerprint,omitempty" ledger:"-"`
	Code        int     `json:"code"`
	ErrKind     string  `json:"error_kind,omitempty" ledger:"|bad_request|unprocessable|solver_error|queue_timeout|canceled"`
	CacheHit    bool    `json:"cache_hit"`
	Coalesced   bool    `json:"coalesced,omitempty"`
	DurUs       float64 `json:"dur_us" ledger:"dur"`
	QueueUs     float64 `json:"queue_us,omitempty"`
	SolveUs     float64 `json:"solve_us,omitempty"`
	Nodes       int     `json:"nodes,omitempty"`
	Objective   float64 `json:"objective,omitempty"`

	cacheAge time.Duration // of a hit: the reply's cache_age_sec
	flight   *obs.FlightRecorder
}

// flightCall is one in-flight solve that duplicate concurrent requests
// coalesce onto.
type flightCall struct {
	done chan struct{}
	val  *solved
	err  error
}

// Server is the schedd daemon core: construct with New, mount Handler on a
// listener (obs.ServeUntil in cmd/schedd), call Drain to drain.
type Server struct {
	cfg    Config
	reg    *obs.Registry
	ledger *obs.EventLog
	cache  *cache
	sem    chan struct{}

	mu       sync.Mutex
	calls    map[string]*flightCall
	recent   []*reqRecord // ring, newest last
	seq      uint64
	notReady bool

	requests  *obs.Counter
	inflight  *obs.Gauge
	reqDur    *obs.Histogram
	solveDur  *obs.Histogram
	queueDur  *obs.Histogram
	nodesTot  *obs.Counter
	pivotsTot *obs.Counter
	coalesced *obs.Counter
	// Warm-start health of the revised-simplex solver contexts, summed over
	// all solves: warm vs fallback-cold re-solves and dual-certified prunes.
	warmTot     *obs.Counter
	fallbackTot *obs.Counter
	warmInfTot  *obs.Counter

	// coreSolve is core.Solve; a field so that a test can put a solver that
	// fails in ways the real one does not in its place.
	coreSolve func([]core.AnalysisSpec, core.Resources, core.SolveOptions) (*core.Recommendation, error)
}

// New builds a Server; it is ready as soon as it returns.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	s := &Server{
		cfg:       cfg,
		reg:       reg,
		ledger:    cfg.Ledger,
		cache:     newCache(cfg.CacheEntries, reg, cfg.Now),
		sem:       make(chan struct{}, cfg.MaxInFlight),
		calls:     make(map[string]*flightCall),
		requests:  reg.Counter("schedd_requests_total", nil),
		inflight:  reg.Gauge("schedd_inflight", nil),
		reqDur:    reg.Histogram("schedd_request_seconds", obs.DefBuckets, nil),
		solveDur:  reg.Histogram("schedd_solve_seconds", obs.DefBuckets, nil),
		queueDur:  reg.Histogram("schedd_queue_seconds", obs.DefBuckets, nil),
		nodesTot:  reg.Counter("schedd_solver_nodes_total", nil),
		pivotsTot: reg.Counter("schedd_solver_pivots_total", nil),
		coalesced: reg.Counter("schedd_coalesced_total", nil),

		warmTot:     reg.Counter("schedd_solver_warm_total", nil),
		fallbackTot: reg.Counter("schedd_solver_warm_fallback_total", nil),
		warmInfTot:  reg.Counter("schedd_solver_warm_infeasible_total", nil),

		coreSolve: core.Solve,
	}
	return s
}

// Registry exposes the server's metrics registry (for embedding callers).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Drain turns the /readyz answer to not ready for good; cmd/schedd calls it
// on the first shutdown signal so load balancers drain the instance while
// in-flight requests finish.
func (s *Server) Drain() {
	s.mu.Lock()
	s.notReady = true
	s.mu.Unlock()
}

// Handler mounts the full route set: the obs observatory mux (/healthz,
// /metrics, /metrics.json, /debug/pprof) plus the service routes.
func (s *Server) Handler() http.Handler {
	mux := obs.NewServeMux(s.reg)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("GET /v1/requests", s.handleRequests)
	mux.HandleFunc("GET /v1/requests/{id}/solve.json", s.handleRequestFlight)
	return mux
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.notReady
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// genID mints a request ID when the client did not send one: "r", the
// server's request sequence number padded to six digits, four random bytes.
func (s *Server) genID() string {
	s.mu.Lock()
	s.seq++
	n := s.seq
	s.mu.Unlock()
	var r [4]byte
	_, _ = rand.Read(r[:]) // never fails (crypto/rand aborts the process instead)
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], n, 10)
	id := append(make([]byte, 0, 32), 'r')
	for pad := len(d); pad < 6; pad++ {
		id = append(id, '0')
	}
	id = append(append(id, d...), '-')
	return string(hex.AppendEncode(id, r[:]))
}

// bodyPool holds the buffers request bodies are read into. A cache entry
// that remembers a body keeps its own copy, so a buffer is free again as
// soon as its request is answered.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer bodyPool.Put(buf)
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	a := s.process(r.Context(), r.Header.Get(obs.RequestIDHeader), nil, buf.Bytes(), err)
	// The body is spent (a cache entry keeps its own copy), so its buffer
	// takes the reply's head.
	buf.Reset()
	a.write(w, buf.AvailableBuffer())
}

// Process runs one request through the full service pipeline — request ID,
// cache, coalescing, admission, metrics, and ledger — without HTTP. It is
// the engine behind POST /v1/solve, and what `schedd once` calls so one-shot
// CLI solves answer byte-identically (schema, telemetry, cache keys) to the
// daemon. An empty id mints one. The int is the would-be HTTP status.
func (s *Server) Process(ctx context.Context, id string, req SolveRequest) (*SolveResponse, int) {
	a := s.process(ctx, id, &req, nil, nil)
	return a.response(), a.rec.Code
}

// answer is one finished request before its transport renders it. rec
// carries what is the request's own in a reply (ID, hit and coalesced flags,
// cache age, status); a success shares val with every other reply for the
// same solve, a failure has ejson instead.
type answer struct {
	rec   *reqRecord
	val   *solved
	ejson *ErrorJSON
}

// process is the pipeline. Process hands it a decoded req; the handler hands
// it a nil req and the body it read (or the error reading it), so that a body
// the cache recognises is answered without being decoded at all.
func (s *Server) process(ctx context.Context, id string, req *SolveRequest, body []byte, bodyErr error) answer {
	start := s.cfg.Now()
	if id == "" {
		id = s.genID()
	}
	s.requests.Inc()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	rec := &reqRecord{ID: id}
	if req == nil {
		if bodyErr != nil {
			return s.finish(start, rec, nil, &ErrorJSON{Kind: ErrBadRequest, Message: "reading request: " + bodyErr.Error()})
		}
		if val, age, ok := s.cache.getBody(body); ok {
			return s.finishHit(start, rec, val, age)
		}
		req = new(SolveRequest)
		// The first JSON value is the request; bytes after it are ignored.
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(req); err != nil {
			return s.finish(start, rec, nil, &ErrorJSON{Kind: ErrBadRequest, Message: "decoding request: " + err.Error()})
		}
	}
	if len(req.Scenario.Analyses) == 0 {
		return s.finish(start, rec, nil, &ErrorJSON{Kind: ErrUnprocessable, Message: "scenario: no analyses"})
	}
	rec.Fingerprint = req.Scenario.Fingerprint()
	m := miss{key: rec.Fingerprint, body: body, explain: req.Explain}
	if req.Explain {
		m.key += "|explain"
	}
	if val, age, ok := s.cache.get(m.key, body); ok {
		return s.finishHit(start, rec, val, age)
	}

	m.specs, m.res = req.Scenario.Decode()
	if err := validate(m.specs, m.res); err != nil {
		return s.finish(start, rec, nil, &ErrorJSON{Kind: ErrUnprocessable, Message: err.Error()})
	}
	if n := core.EstimateColumns(m.specs, m.res, maxModelColumns); n > maxModelColumns {
		return s.finish(start, rec, nil, &ErrorJSON{Kind: ErrUnprocessable, Message: fmt.Sprintf(
			"scenario: the model would have over %d columns (counted to %d); lower steps or raise min_interval", maxModelColumns, n)})
	}
	val, ejson := s.solveShared(ctx, rec, m)
	return s.finish(start, rec, val, ejson)
}

// validate refuses before admission what core.Solve would refuse inside a
// solver slot: a step count or threshold out of range, a nameless analysis, a
// negative cost, two analyses with one name.
func validate(specs []core.AnalysisSpec, res core.Resources) error {
	if err := res.Validate(); err != nil {
		return err
	}
	return core.ValidateSpecs(specs)
}

// finishHit closes out a request the cache answered, by key or by body.
// rec.Nodes stays 0: no new solver work.
func (s *Server) finishHit(start time.Time, rec *reqRecord, val *solved, age time.Duration) answer {
	rec.CacheHit, rec.cacheAge = true, age
	return s.finish(start, rec, val, nil)
}

// miss is a request the cache could not answer, on its way to the solver.
type miss struct {
	key     string // cache and coalescing key: the fingerprint plus the explain bit
	body    []byte // the transport form, if there was one, for the new entry to remember
	specs   []core.AnalysisSpec
	res     core.Resources
	explain bool
}

// solveShared coalesces identical concurrent requests onto one solve and
// admission-controls the leader through the solver-slot semaphore.
func (s *Server) solveShared(ctx context.Context, rec *reqRecord, m miss) (*solved, *ErrorJSON) {
	s.mu.Lock()
	if f, ok := s.calls[m.key]; ok {
		s.mu.Unlock()
		s.coalesced.Inc()
		rec.Coalesced = true
		select {
		case <-f.done:
			if f.err != nil {
				return nil, classify(f.err)
			}
			return f.val, nil
		case <-ctx.Done():
			return nil, &ErrorJSON{Kind: ErrCanceled, Message: "client went away while coalesced on an in-flight solve"}
		}
	}
	f := &flightCall{done: make(chan struct{})}
	s.calls[m.key] = f
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.calls, m.key)
		s.mu.Unlock()
		close(f.done)
	}()

	// Admission: wait for a solver slot, but not past QueueTimeout.
	qStart := s.cfg.Now()
	timer := time.NewTimer(s.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case s.sem <- struct{}{}:
	case <-timer.C:
		f.err = errQueueTimeout
		return nil, classify(f.err)
	case <-ctx.Done():
		f.err = ctx.Err()
		return nil, classify(f.err)
	}
	defer func() { <-s.sem }()
	queue := s.cfg.Now().Sub(qStart)
	s.queueDur.Observe(queue.Seconds())
	rec.QueueUs = float64(queue.Microseconds())

	val, err := s.solve(ctx, rec, m)
	if err != nil {
		f.err = err
		return nil, classify(err)
	}
	rec.SolveUs = float64(val.rec.SolveTime.Microseconds())
	rec.Nodes = val.rec.Stats.Nodes
	s.cache.put(m.key, val, m.body)
	f.val = val
	return val, nil
}

var (
	// errQueueTimeout marks an admission rejection for classify.
	errQueueTimeout = errors.New("schedd: no solver slot within the queue timeout")
	// errSolver marks a failure that is the service's own and not the
	// request's: a panic below the solve, an answer that cannot be encoded.
	errSolver = errors.New("schedd: solver failed")
)

// classify maps a solve-path error onto the response taxonomy.
func classify(err error) *ErrorJSON {
	switch {
	case errors.Is(err, errQueueTimeout):
		return &ErrorJSON{Kind: ErrQueueTimeout, Message: err.Error()}
	case errors.Is(err, errSolver):
		return &ErrorJSON{Kind: ErrSolver, Message: err.Error()}
	case errors.Is(err, milp.ErrCanceled), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return &ErrorJSON{Kind: ErrCanceled, Message: err.Error()}
	default:
		// The core layer rejects malformed scenarios (bad thresholds,
		// impossible intervals) with descriptive errors; those are the
		// client's to fix.
		return &ErrorJSON{Kind: ErrUnprocessable, Message: err.Error()}
	}
}

// solve runs one cache-miss solve under the request's pprof label, records
// its flight stream, ledgers the solve span plus the flight events under the
// request ID, and renders the part of the reply every request for this solve
// will share. A panic below it comes back as an error wrapping errSolver (the
// value, not the stack), with the flight recorded up to that point on rec.
func (s *Server) solve(ctx context.Context, rec *reqRecord, m miss) (val *solved, err error) {
	id := rec.ID
	fr := obs.NewFlightRecorder(0)
	fr.SetName(id)
	opts := core.SolveOptions{Flight: fr}
	defer func() {
		if p := recover(); p != nil {
			rec.flight = fr
			val, err = nil, fmt.Errorf("%w: panic: %v", errSolver, p)
		}
	}()

	var rc *core.Recommendation
	var expl *core.Explanation
	pprof.Do(ctx, pprof.Labels("schedd_request", id), func(lctx context.Context) {
		opts.Ctx = lctx
		if m.explain {
			expl, err = core.Explain(m.specs, m.res, opts)
			if err == nil {
				rc = expl.Rec
			}
		} else {
			rc, err = s.coreSolve(m.specs, m.res, opts)
		}
	})
	if err != nil {
		return nil, err
	}
	s.nodesTot.Add(float64(rc.Stats.Nodes))
	s.pivotsTot.Add(float64(rc.Stats.Pivots))
	s.warmTot.Add(float64(rc.Stats.WarmSolves))
	s.fallbackTot.Add(float64(rc.Stats.FallbackColds))
	s.warmInfTot.Add(float64(rc.Stats.WarmInfeasibles))
	s.solveDur.Observe(rc.SolveTime.Seconds())
	s.ledger.Append(rc.SolveEvent(id, m.res.TimeThreshold))
	fr.AppendLedger(s.ledger, id)
	val = &solved{fingerprint: rec.Fingerprint, rec: rc, expl: expl, flight: fr, at: s.cfg.Now()}
	var w replyWriter
	if w.appendTail(buildResponse(responseHead{}, val)); w.err != nil {
		return nil, fmt.Errorf("%w: encoding the reply: %v", errSolver, w.err)
	}
	val.tail = w.b
	return val, nil
}

// buildResponse is the one definition of the reply document: a request's head
// and everything a solved says.
func buildResponse(head responseHead, val *solved) *SolveResponse {
	rc := val.rec
	resp := &SolveResponse{
		responseHead:    head,
		Objective:       rc.Objective,
		TotalTimeSec:    rc.TotalTime,
		PeakMemoryBytes: rc.PeakMemory,
		Solver: SolverInfo{
			Nodes:        rc.Stats.Nodes,
			Relaxations:  rc.Stats.Relaxations,
			Pivots:       rc.Stats.Pivots,
			SolveTimeSec: rc.SolveTime.Seconds(),
			Bound:        rc.Stats.BestBound,

			WarmSolves:       rc.Stats.WarmSolves,
			ColdSolves:       rc.Stats.ColdSolves,
			FallbackColds:    rc.Stats.FallbackColds,
			WarmInfeasibles:  rc.Stats.WarmInfeasibles,
			PrimalPivots:     rc.Stats.PrimalPivots,
			DualPivots:       rc.Stats.DualPivots,
			Refactorizations: rc.Stats.Refactorizations,
			EtaPeak:          rc.Stats.EtaPeak,
		},
	}
	for _, sch := range rc.Schedules {
		resp.Schedules = append(resp.Schedules, ScheduleJSON{
			Name:             sch.Name,
			Enabled:          sch.Enabled,
			Count:            sch.Count,
			OutputEvery:      sch.OutputEvery,
			Outputs:          sch.Outputs,
			AnalysisSteps:    sch.AnalysisSteps,
			OutputSteps:      sch.OutputSteps,
			PredictedTimeSec: sch.PredictedTime,
			PeakMemoryBytes:  sch.PeakMemory,
		})
	}
	if val.expl != nil {
		ex := &ExplainJSON{TimeSlackSec: bounded(val.expl.TimeSlack), MemSlackBytes: bounded(val.expl.MemSlack)}
		for _, a := range val.expl.Attributions {
			at := AttributionJSON{
				Name:            a.Name,
				Enabled:         a.Enabled,
				Count:           a.Count,
				MaxCount:        a.MaxCount,
				Binding:         a.Binding,
				ForcedFeasible:  a.ForcedFeasible,
				ForcedDelta:     a.ForcedDelta,
				ForcedViolation: a.ForcedViolation,
				Conflict:        a.Conflict,
			}
			if a.BindingSlack != 0 {
				at.BindingSlack = bounded(a.BindingSlack)
			}
			ex.Attributions = append(ex.Attributions, at)
		}
		resp.Explain = ex
	}
	return resp
}

// bounded is a slack as the wire carries it: nil when it is unbounded.
func bounded(slack float64) *float64 {
	if math.IsInf(slack, 1) {
		return nil
	}
	return &slack
}

// head is the request's own part of a reply; a failure's is its ID alone.
func (a answer) head() responseHead {
	h := responseHead{Schema: SchemaVersion, RequestID: a.rec.ID}
	if a.ejson == nil {
		h.Fingerprint, h.CacheHit = a.val.fingerprint, a.rec.CacheHit
		h.Coalesced, h.CacheAgeSec = a.rec.Coalesced, a.rec.cacheAge.Seconds()
	}
	return h
}

// response renders the answer as a document value, for callers that encode
// or read it themselves.
func (a answer) response() *SolveResponse {
	if a.ejson != nil {
		return &SolveResponse{responseHead: a.head(), Error: a.ejson}
	}
	return buildResponse(a.head(), a.val)
}

// write renders the answer over HTTP, in scratch if it has room: the
// request's head, then the tail its solve rendered once (a failure renders its
// own), the bytes EncodeResponse writes for response().
func (a answer) write(w http.ResponseWriter, scratch []byte) {
	w.Header().Set(obs.RequestIDHeader, a.rec.ID)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(a.rec.Code)
	head := a.head()
	doc := replyWriter{b: scratch[:0]}
	doc.appendHead(&head) // strings, bools and a finite age always encode
	if a.ejson != nil {
		doc.appendTail(&SolveResponse{Error: a.ejson}) // so do zeros
		_, _ = w.Write(doc.b)
		return
	}
	_, _ = w.Write(doc.b)
	_, _ = w.Write(a.val.tail)
}

// httpCode maps an error kind onto its status code.
func httpCode(kind string) int {
	switch kind {
	case ErrBadRequest:
		return http.StatusBadRequest
	case ErrUnprocessable:
		return http.StatusUnprocessableEntity
	case ErrQueueTimeout:
		return http.StatusServiceUnavailable
	case ErrCanceled:
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusInternalServerError
	}
}

// finish closes out one request, a success (val) or a failure (ejson): RED
// metrics, the reqlog root event, and the recent-request registry entry. The
// transport (HTTP handler or CLI) renders the answer it returns.
func (s *Server) finish(start time.Time, rec *reqRecord, val *solved, ejson *ErrorJSON) answer {
	dur := s.cfg.Now().Sub(start)
	s.reqDur.Observe(dur.Seconds())
	rec.DurUs = float64(dur.Microseconds())

	rec.Code = http.StatusOK
	if val != nil {
		rec.Fingerprint, rec.flight, rec.Objective = val.fingerprint, val.flight, val.rec.Objective
	}
	if ejson != nil {
		rec.Code = httpCode(ejson.Kind)
		rec.ErrKind = ejson.Kind
		s.reg.Counter("schedd_errors_total", obs.Labels{"kind": ejson.Kind}).Inc()
		if ejson.Kind == ErrQueueTimeout {
			s.reg.Counter("schedd_rejected_total", obs.Labels{"reason": "queue_timeout"}).Inc()
		}
	}

	// The request's root span: everything nested under it (solve span,
	// solveprog flight events) shares the request ID in Name.
	if s.ledger != nil {
		s.ledger.Append(obs.RecordEvent(obs.LedgerReqLog, rec))
	}

	s.mu.Lock()
	s.recent = append(s.recent, rec)
	if over := len(s.recent) - recentRequests; over > 0 {
		s.recent = append(s.recent[:0], s.recent[over:]...)
	}
	s.mu.Unlock()
	return answer{rec: rec, val: val, ejson: ejson}
}

// handleRequests serves the recent-request registry, newest first.
func (s *Server) handleRequests(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]*reqRecord, len(s.recent))
	for i, rec := range s.recent {
		out[len(s.recent)-1-i] = rec
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

// handleRequestFlight serves one request's solver flight stream in the same
// JSON shape as the live /solve.json routes (obs.FlightJSONHandler).
func (s *Server) handleRequestFlight(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	var found *reqRecord
	for i := len(s.recent) - 1; i >= 0; i-- {
		if s.recent[i].ID == id {
			found = s.recent[i]
			break
		}
	}
	s.mu.Unlock()
	if found == nil || found.flight == nil {
		http.Error(w, "no flight recording for request "+id, http.StatusNotFound)
		return
	}
	fr := found.flight
	obs.FlightJSONHandler(func() (string, []obs.SolveProgress) {
		return id, fr.Snapshot()
	}).ServeHTTP(w, r)
}
