package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"insitu/internal/core"
	"insitu/internal/milp"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10}} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// the function the acceptance driver computes its spread with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 4, 7, 1}, 1.75, 9.25},
		{[]float64{5, 3}, 2.5, 5.5},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spreadShare([]float64{1, 2, 3, 4, 5}); !near(got, 1) {
		t.Errorf("spreadShare = %v, want 1", got)
	}
	if !math.IsNaN(spreadShare([]float64{1})) {
		t.Error("the spread of one run is unknown")
	}
}

// fakeInstance counts passes and records one sample per op.
type fakeInstance struct{ n, passes int }

func (f *fakeInstance) ops() int { return f.n }
func (f *fakeInstance) pass(p int, deep bool, s *sink) {
	f.passes++
	for i := 0; i < f.n; i++ {
		s.timed(i, func() {}, func() (byte, string) {
			if p == 2 && i == 0 {
				return 0, "wrong on purpose"
			}
			return 0, ""
		})
	}
}

func TestMeasureRunsWholePasses(t *testing.T) {
	inst, s := &fakeInstance{n: 7}, &sink{}
	passes, _ := measure(inst, 0, s)
	if passes != 1 || len(s.ms) != 7 {
		t.Fatalf("zero seconds: %d passes, %d samples; want one whole pass", passes, len(s.ms))
	}
	inst, s = &fakeInstance{n: 7}, &sink{}
	passes, blocks := measure(inst, 0.02, s)
	if passes != inst.passes || len(s.ms) != passes*7 {
		t.Fatalf("%d passes, %d samples: a pass was cut short", passes, len(s.ms))
	}
	if len(blocks) != 1 || blocks[0].ops != passes*7 || blocks[0].wall < 0.02 {
		t.Fatalf("blocks = %+v, want one block of every op lasting at least 20ms", blocks)
	}
	if s.failed != 1 {
		t.Fatalf("%d failures counted, want the one of pass 2", s.failed)
	}
}

func TestQuietestSample(t *testing.T) {
	s := &sink{ms: []float64{5, 9, 4, 7, 6, 8}, ids: []int{0, 1, 0, 1, 0, 1}}
	if got := s.quietest(s.ms, 2); got[0] != 4 || got[1] != 7 {
		t.Fatalf("quietest = %v, want [4 7]", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", StartNS: 0, EndNS: 100},
		{ID: 2, Name: "a", StartNS: 10, EndNS: 40, Parent: 1},
		{ID: 3, Name: "b", StartNS: 30, EndNS: 60, Parent: 1}, // overlaps a by 10
		{ID: 4, Name: "c", StartNS: 35, EndNS: 38, Parent: 2},
		{ID: 5, Name: "late", StartNS: 90, EndNS: 120, Parent: 1}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 27, 3: 30, 4: 3, 5: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestRecorderFlush(t *testing.T) {
	var none *recorder
	none.end(none.begin("op", 0, 1)) // a nil recorder records nothing and does not panic

	r := newRecorder()
	op := r.begin("op", 0, 7)
	r.around("layer", op, 7, func() {})
	r.end(op)
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := r.flush(path, "w", 1); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) != 2 || tf.Spans[1].Parent != tf.Spans[0].ID || tf.Spans[1].OpID != 7 {
		t.Fatalf("spans = %+v", tf.Spans)
	}
	if _, ok := tf.SelfNS["layer"]; !ok {
		t.Fatalf("self times = %v", tf.SelfNS)
	}
}

func TestOpListsFollowTheSeed(t *testing.T) {
	for _, w := range workloads() {
		for _, sz := range []size{small, full} {
			a := w.generate(defaultSeed, sz).opList()
			b := w.generate(defaultSeed, sz).opList()
			c := w.generate(checkSeed, sz).opList()
			if len(a) == 0 || !bytes.Equal(a, b) {
				t.Errorf("%s: the same seed gave different op lists", w.name)
			}
			if bytes.Equal(a, c) {
				t.Errorf("%s: different seeds gave the same op list", w.name)
			}
		}
	}
}

// TestRoundTripCountersMatch is the guard the traced run relies on: milp.Solve
// on the ExportLP → ReadLP round trip does exactly the work core.Solve reports.
func TestRoundTripCountersMatch(t *testing.T) {
	problems := paperTableProblems(core.SolveOptions{})
	problems = append(problems, sparseProblem(sparseDefaultSmall.subs[0], 40, 0), sparseProblem(sparseWideSmall.subs[0], 40, 2))
	for i := range problems {
		pr := &problems[i]
		rec, err := pr.solve()
		if err != nil {
			t.Fatal(err)
		}
		mp, err := roundTrip(pr)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := milp.Solve(mp, milp.Options{Workers: pr.opts.Workers})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Stats.Nodes != rec.Stats.Nodes || sol.Stats.Pivots != rec.Stats.Pivots {
			t.Errorf("problem %d: round trip %d nodes/%d pivots, core.Solve %d/%d",
				i, sol.Stats.Nodes, sol.Stats.Pivots, rec.Stats.Nodes, rec.Stats.Pivots)
		}
		if msg := checkObjective(sol.Objective, rec.Objective); msg != "" {
			t.Errorf("problem %d: %s", i, msg)
		}
	}
}

func TestCommittedSparseReferences(t *testing.T) {
	refs, err := sparseRefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range []pool{sparseDefaultPool, sparseWidePool} {
		for _, sub := range pl.subs {
			if _, ok := refs[refKey(pl.n, sub)]; !ok {
				t.Errorf("no committed reference for %s", refKey(pl.n, sub))
			}
		}
	}
}

func TestJudge(t *testing.T) {
	lat := metricDef{Name: "op_ms_p50", Unit: "ms", Better: lower, Bound: 0.10}
	thr := metricDef{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100.5}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"within the bound", lat, steady, []float64{104, 105, 103, 104, 104}, verdictSame},
		{"latency up", lat, steady, []float64{120, 121, 119, 120, 122}, verdictWorse},
		{"latency down", lat, steady, []float64{80, 81, 79, 80, 82}, verdictBetter},
		{"throughput down", thr, steady, []float64{80, 81, 79, 80, 82}, verdictWorse},
		{"throughput up", thr, steady, []float64{120, 121, 119, 120, 122}, verdictBetter},
		{"noisy and overlapping", lat, []float64{100, 140, 80, 120, 90}, []float64{105, 150, 85, 125, 95}, verdictUnresolved},
		{"noisy but every run worse", lat, []float64{100, 140, 80, 120, 90}, []float64{200, 260, 180, 220, 190}, verdictWorse},
		{"single runs compare medians", lat, []float64{100}, []float64{120}, verdictWorse},
	} {
		if got, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	file := func(p50 float64, failed int, nodes float64) resultsFile {
		e2e := result{Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]metricValue{}}
		for _, d := range endToEnd {
			e2e.Metrics[d.Name] = metricValue{Value: 1, Unit: d.Unit}
		}
		e2e.Metrics["op_ms_p50"] = metricValue{Value: p50, Unit: "ms"}
		layers := result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"milp.nodes": {Value: nodes, Unit: "count"}}}
		return resultsFile{Seed: 1, Seconds: 1, GoMaxProcs: 2, Runs: []runRecord{
			{Workload: "paper_sweep", Result: e2e}, {Workload: "paper_sweep", Trace: 1, Result: layers}}}
	}
	var out bytes.Buffer
	if compareFiles(file(1, 0, 10), file(1.05, 0, 10), &out) {
		t.Errorf("5%% inside a 10%% bound regressed:\n%s", out.String())
	}
	out.Reset()
	if !compareFiles(file(1, 0, 10), file(1.5, 0, 12), &out) || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("50%% slower did not regress:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "count milp.nodes changed: 10 -> 12") {
		t.Errorf("changed count not reported:\n%s", out.String())
	}
	out.Reset()
	if !compareFiles(file(1, 0, 10), file(1, 3, 10), &out) || !strings.Contains(out.String(), "failed_share") {
		t.Errorf("a higher failed share did not regress:\n%s", out.String())
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the tables the
// harness reports from in step.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("%d workloads listed, harness has %d", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	same := func(kind string, listed, have []metricDef) {
		if len(listed) != len(have) {
			t.Fatalf("%s: %d metrics listed, harness reports %d", kind, len(listed), len(have))
		}
		for i := range have {
			if listed[i] != have[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, harness %+v", kind, i, listed[i], have[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// TestSmoke runs every workload end to end at the small size: a fifth of a
// second of measured passes, every answer checked. The workloads run side by
// side because nothing here reads a clock for its verdict.
func TestSmoke(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			cfg := runConfig{workload: w, seed: defaultSeed, seconds: 0.2, size: small, setupReps: 1}
			res, messages, err := runEndToEnd(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%t, %d of %d failed: %v", res.Correct, res.Failed, res.Attempted, messages)
			}
			for _, d := range endToEnd {
				if v := res.Metrics[d.Name].Value; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", d.Name, v)
				}
			}
		})
	}
}

// differences are the per-layer metrics computed by subtracting two timings;
// noise can push them below zero.
var differences = map[string]bool{
	"core.residual_us": true, "schedd.handler_overhead_us": true, "obs.flight_overhead_us": true,
}

func TestSmokeTraced(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			cfg := runConfig{workload: w, seed: checkSeed, size: small}
			path := filepath.Join(dir, "trace-"+w.name+".json")
			res, messages, err := runTraced(cfg, path)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct=%t, %d of %d failed: %v", res.Correct, res.Failed, res.Attempted, messages)
			}
			for _, d := range perLayer {
				v, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s is missing", d.Name)
				}
				if timed := d.Unit == "us" || d.Unit == "ns" || d.Unit == "ms"; timed && !differences[d.Name] && !(v.Value > 0) {
					t.Errorf("%s = %v, want a measured time", d.Name, v.Value)
				}
			}
			if _, err := os.Stat(path); err != nil {
				t.Error(err)
			}
		})
	}
}
