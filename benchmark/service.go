package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"

	"insitu/internal/core"
	"insitu/internal/scenario"
	"insitu/internal/schedd"
)

// Op classes of the service workload, read off each response.
const (
	classHit  byte = 1
	classMiss byte = 2
)

// serviceOp is one request: a scenario from the hot set (sent byte-identical
// every time, so it is served from the cache once solved) or a scenario the
// service has never seen (a threshold of its own, and analysis names retagged
// per pass, so it always solves).
type serviceOp struct {
	hot  bool
	body []byte // pre-encoded request, hot ops only (set by reference)
	pr   problem
}

// serviceGen is the seed's request mix, one op list per client.
type serviceGen struct {
	cfg     schedd.Config
	tag     string // carries the seed into the retagged names
	clients [][]*serviceOp
	hotSet  []*serviceOp
}

// serviceClients is the closed-loop client count: every caller waits for its
// schedule before asking again, and the load never exceeds two threads.
const serviceClients = 2

var serviceMix = workload{
	name:    "service_mix",
	why:     "schedd at its defaults, driven in-process by 2 closed-loop clients: 80% requests from a 32-scenario hot set (cache hits), 20% never-seen thresholds (solves that churn the LRU)",
	clients: serviceClients,
	generate: func(seed int64, sz size) generated {
		hot, perClient := 32, 1000
		if sz == small {
			hot, perClient = 6, 40
		}
		return generateService(seed, hot, perClient)
	},
}

func generateService(seed int64, hot, perClient int) *serviceGen {
	rng := rand.New(rand.NewSource(subSeed(seed, "service_mix")))
	g := &serviceGen{tag: seedTag(seed)}
	apps := paperApps()
	var hotProblems []problem
	for _, a := range apps {
		hotProblems = append(hotProblems, seededThresholds(rng, a, (hot+len(apps)-1)/len(apps), core.SolveOptions{})...)
	}
	rng.Shuffle(len(hotProblems), func(i, j int) { hotProblems[i], hotProblems[j] = hotProblems[j], hotProblems[i] })
	for _, pr := range hotProblems[:hot] {
		g.hotSet = append(g.hotSet, &serviceOp{hot: true, pr: pr})
	}
	for c := 0; c < serviceClients; c++ {
		ops := make([]*serviceOp, perClient)
		for i := range ops {
			// Exactly one op in five misses, so the median op is a hit and
			// the 90th percentile sits in the middle of the misses.
			if i%5 == 4 {
				a := apps[rng.Intn(len(apps))]
				f := 0.25 * math.Pow(16, rng.Float64())
				ops[i] = &serviceOp{pr: problem{specs: a.specs, res: core.Resources{Steps: 1000, TimeThreshold: a.threshold * f, MemThreshold: paperMem}}}
			} else {
				ops[i] = g.hotSet[rng.Intn(hot)]
			}
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		g.clients = append(g.clients, ops)
	}
	return g
}

func encodeRequest(specs []core.AnalysisSpec, res core.Resources) []byte {
	body, err := json.Marshal(schedd.SolveRequest{Scenario: scenario.FromSpecs(specs, res)})
	if err != nil {
		panic(err) // plain structs of numbers and strings always encode
	}
	return body
}

func (g *serviceGen) opList() []byte {
	var b bytes.Buffer
	for c, ops := range g.clients {
		for _, op := range ops {
			fmt.Fprintf(&b, "%d hot=%t %s\n", c, op.hot, encodeRequest(op.pr.specs, op.pr.res))
		}
	}
	return b.Bytes()
}

// reference also encodes the hot set's request bodies, which must carry the
// thresholds the references were computed at.
func (g *serviceGen) reference() error {
	for _, op := range g.hotSet {
		if _, err := op.pr.computeRef(); err != nil {
			return err
		}
		op.body = encodeRequest(op.pr.specs, op.pr.res)
	}
	for _, ops := range g.clients {
		for _, op := range ops {
			if op.hot {
				continue
			}
			if _, err := op.pr.computeRef(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (g *serviceGen) probeInputs() probeInputs {
	in := probeInputs{service: g}
	for _, op := range g.hotSet {
		in.problems = append(in.problems, op.pr)
	}
	return in
}

func (g *serviceGen) start() instance { return g.startService() }

func (g *serviceGen) startService() *serviceInst {
	srv := schedd.New(g.cfg)
	return &serviceInst{gen: g, srv: srv, handler: srv.Handler()}
}

type serviceInst struct {
	gen     *serviceGen
	srv     *schedd.Server
	handler http.Handler
}

func (in *serviceInst) ops() int {
	n := 0
	for _, ops := range in.gen.clients {
		n += len(ops)
	}
	return n
}

// pass lets every client walk its list once, all clients at the same time.
func (in *serviceInst) pass(p int, deep bool, s *sink) {
	var wg sync.WaitGroup
	for c, ops := range in.gen.clients {
		wg.Add(1)
		go func(c int, ops []*serviceOp) {
			defer wg.Done()
			w := &respWriter{header: http.Header{}}
			for i, op := range ops {
				body, pr := op.body, op.pr
				if !op.hot {
					pr.specs = retag(pr.specs, in.gen.tag+passTag(p))
					body = encodeRequest(pr.specs, pr.res)
				}
				req, err := http.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
				if err != nil {
					panic(err) // constant method and URL
				}
				w.reset()
				s.timed(c*len(ops)+i,
					func() { in.handler.ServeHTTP(w, req) },
					func() (byte, string) { return checkResponse(w, &pr, deep) })
			}
		}(c, ops)
	}
	wg.Wait()
}

// respWriter is the in-process http.ResponseWriter: no sockets, because the
// kernel's loopback is not one of this repository's layers.
type respWriter struct {
	header http.Header
	code   int
	buf    bytes.Buffer
}

func (w *respWriter) Header() http.Header         { return w.header }
func (w *respWriter) WriteHeader(code int)        { w.code = code }
func (w *respWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }
func (w *respWriter) reset() {
	for k := range w.header {
		delete(w.header, k)
	}
	w.code = http.StatusOK
	w.buf.Reset()
}

// topLevelNumber reads a number-valued top-level key out of schedd's indented
// response without decoding the document.
func topLevelNumber(doc []byte, key string) (float64, bool) {
	marker := []byte("\n  \"" + key + "\": ")
	i := bytes.Index(doc, marker)
	if i < 0 {
		return 0, false
	}
	rest := doc[i+len(marker):]
	end := bytes.IndexAny(rest, ",\n")
	if end < 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(rest[:end]), 64)
	return v, err == nil
}

// checkResponse verifies one reply: status 200, the objective at the
// reference, the budget respected. deep decodes the whole document and
// re-validates the returned schedules against the constraint recurrences.
func checkResponse(w *respWriter, pr *problem, deep bool) (byte, string) {
	doc := w.buf.Bytes()
	class := classMiss
	if bytes.Contains(doc, []byte("\n  \"cache_hit\": true")) {
		class = classHit
	}
	if w.code != http.StatusOK {
		return class, fmt.Sprintf("status %d: %s", w.code, doc)
	}
	obj, ok := topLevelNumber(doc, "objective")
	if !ok {
		return class, "response carries no objective"
	}
	if msg := checkObjective(obj, pr.ref); msg != "" {
		return class, msg
	}
	if total, ok := topLevelNumber(doc, "total_time_sec"); !ok || total > pr.res.TimeThreshold*(1+1e-9) {
		return class, fmt.Sprintf("total time %v exceeds threshold %v", total, pr.res.TimeThreshold)
	}
	if deep {
		var resp schedd.SolveResponse
		if err := json.Unmarshal(doc, &resp); err != nil {
			return class, err.Error()
		}
		if err := recommendationOf(&resp).Validate(pr.specs, pr.res); err != nil {
			return class, err.Error()
		}
	}
	return class, ""
}

// recommendationOf rebuilds the core form of a response so it can be
// validated like any other answer.
func recommendationOf(resp *schedd.SolveResponse) *core.Recommendation {
	rec := &core.Recommendation{Objective: resp.Objective, TotalTime: resp.TotalTimeSec, PeakMemory: resp.PeakMemoryBytes}
	for _, s := range resp.Schedules {
		rec.Schedules = append(rec.Schedules, core.AnalysisSchedule{
			Name: s.Name, Enabled: s.Enabled, Count: s.Count,
			OutputEvery: s.OutputEvery, Outputs: s.Outputs,
			AnalysisSteps: s.AnalysisSteps, OutputSteps: s.OutputSteps,
			PredictedTime: s.PredictedTimeSec, PeakMemory: s.PeakMemoryBytes,
		})
	}
	return rec
}
