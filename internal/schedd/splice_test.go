package schedd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"insitu/internal/obs"
	"insitu/internal/scenario"
)

// memWriter is an in-process http.ResponseWriter.
type memWriter struct {
	header http.Header
	code   int
	buf    bytes.Buffer
}

func newMemWriter() *memWriter { return &memWriter{header: http.Header{}, code: http.StatusOK} }

func (w *memWriter) Header() http.Header         { return w.header }
func (w *memWriter) WriteHeader(code int)        { w.code = code }
func (w *memWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }

// serve posts one body to /v1/solve through h, in process. The request ID is
// set on the header map directly, so it may hold bytes no real transport
// would carry.
func serve(h http.Handler, id string, body []byte) *memWriter {
	req, err := http.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
	if err != nil {
		panic(err) // constant method and URL
	}
	if id != "" {
		req.Header[obs.RequestIDHeader] = []string{id}
	}
	w := newMemWriter()
	h.ServeHTTP(w, req)
	return w
}

func marshalRequest(t testing.TB, req SolveRequest) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// entry returns the cache entry a request resolves to, nil if there is none.
func (s *Server) entry(req SolveRequest) *cacheEntry {
	key := req.Scenario.Fingerprint()
	if req.Explain {
		key += "|explain"
	}
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	if el, ok := s.cache.m[key]; ok {
		return el.Value.(*cacheEntry)
	}
	return nil
}

// checkSpliced holds one successful handler reply to the oracle: the bytes
// json.Encoder writes, indented, for the full SolveResponse that
// buildResponse makes of the cached solve and the reply's own head fields.
func checkSpliced(t testing.TB, what string, s *Server, req SolveRequest, id string, w *memWriter) responseHead {
	t.Helper()
	got := w.buf.Bytes()
	if w.code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", what, w.code, got)
	}
	var head responseHead
	if err := json.Unmarshal(got, &head); err != nil {
		t.Fatalf("%s: reply does not decode: %v\n%s", what, err, got)
	}
	// The header echoes the ID byte for byte, also where JSON is lossy.
	head.RequestID = w.header.Get(obs.RequestIDHeader)
	if id != "" && head.RequestID != id {
		t.Fatalf("%s: request ID %q, sent %q", what, head.RequestID, id)
	}
	e := s.entry(req)
	if e == nil {
		t.Fatalf("%s: nothing cached for the request", what)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(buildResponse(head, e.val)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("%s: spliced reply differs from the encoder's\n--- handler\n%s\n--- encoder\n%s", what, got, want.Bytes())
	}
	return head
}

var nastyNames = []string{"plain", `a<b>&"c"\d`, "line\nbreak\ttab", "解析 è  ", `",` + "\n" + `  "objective": 1`}

func nastyScenario(names []string) scenario.Problem {
	p := scenario.Problem{Resources: scenario.Envelope{Steps: 12, TimeSec: 6, MemBytes: 64 << 20, Bandwidth: 1 << 20}}
	for i, name := range names {
		p.Analyses = append(p.Analyses, scenario.Analysis{
			Name: name, CTSec: 0.5 + 0.25*float64(i), OTSec: 0.125, CMBytes: 1 << 20, OMBytes: 1 << 19,
			MinInterval: 1 + i%3, OutputOptional: i%2 == 1,
		})
	}
	return p
}

// TestResponseIdentity: whatever way a reply came about — miss, hit by
// fingerprint, hit by body, coalesced — and whatever the strings in it, the
// handler's bytes are the encoder's.
func TestResponseIdentity(t *testing.T) {
	frozen := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	clocks := map[string]func() time.Time{
		"real":   nil,
		"frozen": func() time.Time { return frozen }, // age 0: cache_age_sec omitted
	}
	for clock, now := range clocks {
		for _, explain := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/explain=%t", clock, explain), func(t *testing.T) {
				s := New(Config{Now: now})
				h := s.Handler()
				req := SolveRequest{Scenario: nastyScenario(nastyNames), Explain: explain}
				body := marshalRequest(t, req)
				for i, id := range append([]string{""}, nastyNames...) {
					what := fmt.Sprintf("request %d (id %q)", i, id)
					head := checkSpliced(t, what, s, req, id, serve(h, id, body))
					if head.CacheHit != (i > 0) || head.Coalesced {
						t.Fatalf("%s: cache_hit %v coalesced %v", what, head.CacheHit, head.Coalesced)
					}
					if clock == "frozen" && head.CacheAgeSec != 0 {
						t.Fatalf("%s: cache_age_sec %v under a stopped clock", what, head.CacheAgeSec)
					}
				}
				// The same scenario in another transport form hits by fingerprint.
				indented, err := json.MarshalIndent(req, "", "\t")
				if err != nil {
					t.Fatal(err)
				}
				if head := checkSpliced(t, "re-indented", s, req, "other", serve(h, "other", indented)); !head.CacheHit {
					t.Fatal("re-indented body missed")
				}
			})
		}
	}
}

// TestResponseIdentityCoalesced parks a leader in admission until a follower
// has joined it, then holds both replies to the oracle.
func TestResponseIdentityCoalesced(t *testing.T) {
	s := New(Config{MaxInFlight: 1, QueueTimeout: 10 * time.Second})
	h := s.Handler()
	req := SolveRequest{Scenario: nastyScenario(nastyNames)}
	body := marshalRequest(t, req)

	s.sem <- struct{}{}
	var wg sync.WaitGroup
	replies := make([]*memWriter, 2)
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i] = serve(h, fmt.Sprintf("co<%d>", i), body)
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for metricValue(t, s.Registry(), "schedd_coalesced_total", nil) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	<-s.sem
	wg.Wait()

	coalesced := 0
	for i, w := range replies {
		head := checkSpliced(t, fmt.Sprintf("reply %d", i), s, req, fmt.Sprintf("co<%d>", i), w)
		if head.CacheHit {
			t.Fatalf("reply %d: a coalesced pair has no cache hit", i)
		}
		if head.Coalesced {
			coalesced++
		}
	}
	if coalesced != 1 {
		t.Fatalf("%d replies marked coalesced, want 1", coalesced)
	}
}

// FuzzResponseSplice lets the fuzzer choose the strings that end up in a
// reply — the request ID and two analysis names — and the explain bit, and
// holds the miss and the hit to the encoder. The same strings make an error
// document of a fuzzed kind, written by the handler's own path, and a fuzzed
// float is put in the solved document's place for the objective and the
// explain slack, where a non-finite one must fail as encoding/json fails.
func FuzzResponseSplice(f *testing.F) {
	f.Add("req-1", "descriptors", "msd", false, 1.5, uint8(0))
	f.Add(`",`+"\n"+`  "objective": 0`, "a<b>&c", `q"uo\te`, true, math.Inf(1), uint8(3))
	f.Add("\xff\x00", "解析", "line\nbreak", true, 1e21, uint8(4))
	f.Add("r", "x\u2028", "\b\f", false, math.NaN(), uint8(2))
	f.Fuzz(func(t *testing.T, id, name1, name2 string, explain bool, num float64, kind uint8) {
		kinds := []string{ErrBadRequest, ErrUnprocessable, ErrSolver, ErrQueueTimeout, ErrCanceled}
		ejson := &ErrorJSON{Kind: kinds[int(kind)%len(kinds)], Message: name1 + ": " + name2}
		failed := answer{rec: &reqRecord{ID: id, Code: httpCode(ejson.Kind)}, ejson: ejson}
		w := newMemWriter()
		failed.write(w, nil)
		if want, err := encodeResponse(failed.response()); err != nil || !bytes.Equal(w.buf.Bytes(), want) {
			t.Fatalf("error document differs from the encoder's (%v)\n--- handler\n%s\n--- encoder\n%s", err, w.buf.Bytes(), want)
		}

		s := New(Config{})
		h := s.Handler()
		req := SolveRequest{Scenario: nastyScenario([]string{name1, name2}), Explain: explain}
		body := marshalRequest(t, req)
		// The server sees the names as JSON carried them (invalid UTF-8
		// replaced), so the cache is asked about the decoded request.
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		first := serve(h, id, body)
		if first.code != http.StatusOK {
			// An empty name is the scenario's fault; the reply must still be a
			// well-formed error document.
			var doc SolveResponse
			if err := json.Unmarshal(first.buf.Bytes(), &doc); err != nil || doc.Error == nil || doc.Schema != SchemaVersion {
				t.Fatalf("status %d with a malformed error document: %s", first.code, first.buf.Bytes())
			}
			return
		}
		checkSpliced(t, "miss", s, req, id, first)
		if head := checkSpliced(t, "hit", s, req, id, serve(h, id, body)); !head.CacheHit {
			t.Fatal("repeat was not a hit")
		}
		doc := buildResponse(responseHead{RequestID: id}, s.entry(req).val)
		doc.Objective = num
		if doc.Explain != nil {
			doc.Explain.MemSlackBytes = &num
		}
		checkEncode(t, doc)
	})
}

// TestGenID pins the minted ID to the format it has always had.
func TestGenID(t *testing.T) {
	s := New(Config{})
	for _, seq := range []uint64{0, 8, 99998, 999998, 999999, 12345678} {
		s.seq = seq
		id := s.genID()
		prefix := fmt.Sprintf("r%06d-", seq+1)
		if len(id) != len(prefix)+8 || id[:len(prefix)] != prefix {
			t.Errorf("genID after %d = %q, want %sxxxxxxxx", seq, id, prefix)
		}
	}
}
