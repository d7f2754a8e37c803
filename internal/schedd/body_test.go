package schedd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"insitu/internal/scenario"
)

// remembered returns the body the cache entry for req is recognised by.
func (s *Server) remembered(req SolveRequest) []byte {
	if e := s.entry(req); e != nil {
		return e.body
	}
	return nil
}

// tally checks that the hit and miss counters have, between them, advanced
// by exactly one per request, and returns them.
func tally(t *testing.T, s *Server) (hits, misses float64) {
	t.Helper()
	hits = metricValue(t, s.Registry(), "schedd_cache_hits_total", nil)
	misses = metricValue(t, s.Registry(), "schedd_cache_misses_total", nil)
	if reqs := metricValue(t, s.Registry(), "schedd_requests_total", nil); hits+misses != reqs {
		t.Fatalf("hits %v + misses %v != requests %v", hits, misses, reqs)
	}
	return hits, misses
}

// histogramCount returns how many observations a histogram has taken.
func histogramCount(s *Server, name string) int64 {
	for _, m := range s.Registry().Snapshot() {
		if m.Name == name {
			return m.Count
		}
	}
	return 0
}

func solves(s *Server) int64 { return histogramCount(s, "schedd_solve_seconds") }

// schedules cuts the schedules array out of a 200 reply.
func schedules(w *memWriter) (string, error) {
	if w.code != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", w.code, w.buf.Bytes())
	}
	var doc struct {
		Schedules json.RawMessage `json:"schedules"`
	}
	err := json.Unmarshal(w.buf.Bytes(), &doc)
	return string(doc.Schedules), err
}

func schedulesOf(t *testing.T, w *memWriter) string {
	t.Helper()
	sch, err := schedules(w)
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

func isHit(w *memWriter) bool {
	return bytes.Contains(w.buf.Bytes(), []byte("\n  \"cache_hit\": true"))
}

// TestBodyIndexFollowsTheLatestBody: equivalent bodies in another transport
// form are the fingerprint's to recognise, and the one seen last is the one
// the entry is then known by.
func TestBodyIndexFollowsTheLatestBody(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	req := SolveRequest{Scenario: testScenario()}
	compact := marshalRequest(t, req)

	permuted := req
	permuted.Scenario.Analyses = append([]scenario.Analysis(nil), req.Scenario.Analyses...)
	permuted.Scenario.Analyses[0], permuted.Scenario.Analyses[2] = permuted.Scenario.Analyses[2], permuted.Scenario.Analyses[0]
	indented, err := json.MarshalIndent(req, "", "    ")
	if err != nil {
		t.Fatal(err)
	}

	first := serve(h, "", compact)
	if isHit(first) {
		t.Fatal("first request hit")
	}
	want := schedulesOf(t, first)
	for _, form := range [][]byte{compact, marshalRequest(t, permuted), indented, compact} {
		for repeat := 0; repeat < 2; repeat++ {
			w := serve(h, "", form)
			if !isHit(w) || schedulesOf(t, w) != want {
				t.Fatalf("body %.40q…, repeat %d: not a hit with the first schedules", form, repeat)
			}
			if got := s.remembered(req); !bytes.Equal(got, form) {
				t.Fatalf("entry remembers %.40q…, want the body it was last asked with, %.40q…", got, form)
			}
		}
	}
	if n := solves(s); n != 1 {
		t.Fatalf("%v solves for one scenario", n)
	}
	if hits, misses := tally(t, s); hits != 8 || misses != 1 {
		t.Fatalf("hits %v misses %v, want 8 and 1", hits, misses)
	}
	if len(s.cache.bodies) != 1 {
		t.Fatalf("%d bodies indexed for one entry", len(s.cache.bodies))
	}
}

// TestBodyIndexForgetsWithTheEntry: an evicted entry takes its body along, so
// the same bytes again are a miss that solves.
func TestBodyIndexForgetsWithTheEntry(t *testing.T) {
	s := New(Config{CacheEntries: 1})
	h := s.Handler()
	a := marshalRequest(t, SolveRequest{Scenario: testScenario()})
	other := testScenario()
	other.Resources.TimeSec = 7
	b := marshalRequest(t, SolveRequest{Scenario: other})

	for i, body := range [][]byte{a, b, a} {
		if w := serve(h, "", body); w.code != http.StatusOK || isHit(w) {
			t.Fatalf("request %d: status %d hit %v, want a 200 miss", i, w.code, isHit(w))
		}
		if len(s.cache.bodies) != 1 {
			t.Fatalf("request %d: %d bodies indexed by a one-entry cache", i, len(s.cache.bodies))
		}
	}
	if n := solves(s); n != 3 {
		t.Fatalf("%v solves, want 3", n)
	}
	if hits, misses := tally(t, s); hits != 0 || misses != 3 {
		t.Fatalf("hits %v misses %v, want 0 and 3", hits, misses)
	}
	if ev := metricValue(t, s.Registry(), "schedd_cache_evictions_total", nil); ev != 2 {
		t.Fatalf("%v evictions, want 2", ev)
	}
}

// TestBodyIndexKeepsExplainApart: the explain bit is in the body as it is in
// the key, so neither kind of request is answered with the other's reply.
func TestBodyIndexKeepsExplainApart(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	plain := marshalRequest(t, SolveRequest{Scenario: testScenario()})
	explain := marshalRequest(t, SolveRequest{Scenario: testScenario(), Explain: true})
	for round := 0; round < 3; round++ {
		for _, c := range []struct {
			body    []byte
			explain bool
		}{{explain, true}, {plain, false}} {
			w := serve(h, "", c.body)
			if w.code != http.StatusOK || isHit(w) != (round > 0) {
				t.Fatalf("round %d explain=%v: status %d hit %v", round, c.explain, w.code, isHit(w))
			}
			if has := bytes.Contains(w.buf.Bytes(), []byte("\n  \"explain\": {")); has != c.explain {
				t.Fatalf("round %d explain=%v: reply has explain: %v", round, c.explain, has)
			}
		}
	}
	tally(t, s)
}

// TestBodyIndexSkipsLargeBodies: past maxRememberedBody a body is answered
// through its fingerprint every time and never kept.
func TestBodyIndexSkipsLargeBodies(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	req := SolveRequest{Scenario: testScenario()}
	big := append(bytes.Repeat([]byte(" "), maxRememberedBody), marshalRequest(t, req)...)
	for i := 0; i < 3; i++ {
		if w := serve(h, "", big); w.code != http.StatusOK || isHit(w) != (i > 0) {
			t.Fatalf("request %d: status %d hit %v", i, w.code, isHit(w))
		}
		if len(s.remembered(req)) != 0 || len(s.cache.bodies) != 0 {
			t.Fatalf("request %d: a %d-byte body was retained", i, len(big))
		}
	}
	if n := solves(s); n != 1 {
		t.Fatalf("%v solves, want 1", n)
	}
	tally(t, s)
}

// TestBodyIndexDistrustsTheHash plants an index slot that points a body's
// hash at another scenario's entry: the bytes differ, so the body must take
// the slow path to its own answer.
func TestBodyIndexDistrustsTheHash(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	a := marshalRequest(t, SolveRequest{Scenario: testScenario()})
	other := testScenario()
	other.Resources.TimeSec = 3
	b := marshalRequest(t, SolveRequest{Scenario: other})

	wantA := schedulesOf(t, serve(h, "", a))
	sumA, _ := s.cache.sum(a)
	sumB, _ := s.cache.sum(b)
	s.cache.bodies[sumB] = s.cache.bodies[sumA]

	w := serve(h, "", b)
	if isHit(w) {
		t.Fatal("a body was answered on its hash alone")
	}
	wantB := schedulesOf(t, w)
	if wantB == wantA {
		t.Fatal("the two scenarios were meant to schedule differently")
	}
	for i := 0; i < 2; i++ {
		if w := serve(h, "", a); !isHit(w) || schedulesOf(t, w) != wantA {
			t.Fatal("first scenario lost its answer")
		}
		if w := serve(h, "", b); !isHit(w) || schedulesOf(t, w) != wantB {
			t.Fatal("second scenario lost its answer")
		}
	}
	tally(t, s)
}

// TestBodyIndexConcurrent: eight clients on four bodies, two of them the same
// scenario in different forms, against a cache too small to hold all three
// scenarios at once.
func TestBodyIndexConcurrent(t *testing.T) {
	s := New(Config{CacheEntries: 2})
	h := s.Handler()
	var bodies [][]byte
	var want []string
	for _, sec := range []float64{3, 6, 9} {
		p := testScenario()
		p.Resources.TimeSec = sec
		body := marshalRequest(t, SolveRequest{Scenario: p})
		bodies = append(bodies, body)
		want = append(want, schedulesOf(t, serve(h, "", body)))
	}
	bodies = append(bodies, append([]byte("\n\t "), bodies[0]...))
	want = append(want, want[0])

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (c + i*(1+c%3)) % len(bodies)
				if got, err := schedules(serve(h, "", bodies[k])); err != nil || got != want[k] {
					errs <- fmt.Errorf("client %d request %d: body %d not answered with its own schedules (%v)", c, i, k, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	tally(t, s)
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	if len(s.cache.bodies) > s.cache.ll.Len() || s.cache.ll.Len() > 2 {
		t.Fatalf("%d bodies indexed for %d entries (capacity 2)", len(s.cache.bodies), s.cache.ll.Len())
	}
	for sum, el := range s.cache.bodies {
		if e := el.Value.(*cacheEntry); e.sum != sum || s.cache.m[e.key] != el {
			t.Fatalf("index slot %x points at an entry that is gone or remembers another body", sum)
		}
	}
}

// TestHitAllocationBudget: a body the cache recognises is answered in a
// handful of allocations, http.NewRequest's own included; the reflective
// decode and the full-document encode it used to cost were 143, the
// MarshalIndent of the head 3 more than the appended one.
func TestHitAllocationBudget(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	body := marshalRequest(t, SolveRequest{Scenario: testScenario()})
	w := newMemWriter()
	post := func() {
		req, err := http.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
		if err != nil {
			panic(err)
		}
		w.buf.Reset()
		h.ServeHTTP(w, req)
	}
	post()
	post()
	if !isHit(w) {
		t.Fatal("second request missed")
	}
	n := testing.AllocsPerRun(200, post)
	t.Logf("a recognised hit allocates %v objects", n)
	budget := 11.0
	if raceEnabled { // sync.Pool drops a share of its buffers at random
		budget = 32
	}
	if n > budget {
		t.Fatalf("a recognised hit allocates %v objects, budget %v", n, budget)
	}
	if !isHit(w) || w.code != http.StatusOK {
		t.Fatal("budgeted requests were not hits")
	}
}
