package schedd

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"insitu/internal/obs/jsontest"
)

// encodeResponse is the oracle the appender is held to: json.Encoder,
// indented, HTML escaping on, as the service wrote every reply before.
func encodeResponse(r *SolveResponse) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	err := enc.Encode(r)
	return b.Bytes(), err
}

// checkEncode holds EncodeResponse to the oracle byte for byte and error for
// error. It reports whether the document encoded.
func checkEncode(t testing.TB, r *SolveResponse) bool {
	t.Helper()
	want, wantErr := encodeResponse(r)
	got, gotErr := EncodeResponse(r)
	if wantErr != nil || gotErr != nil {
		var wantUV, gotUV *json.UnsupportedValueError
		if !errors.As(wantErr, &wantUV) || !errors.As(gotErr, &gotUV) || wantErr.Error() != gotErr.Error() {
			t.Fatalf("%+v:\nappender error %v\n    json error %v", r, gotErr, wantErr)
		}
		return false
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("appender and encoder differ\n--- appender\n%s\n--- encoder\n%s", got, want)
	}
	return true
}

// randResponse draws a success, explain or error document with every
// omitempty field as often zero as not, every slice as often nil or empty as
// filled, and its strings and floats from the jsontest tables.
func randResponse(rng *rand.Rand) *SolveResponse {
	str := func() string { return jsontest.String(rng) }
	num := func() float64 { return jsontest.Float(rng) }
	zero := func() bool { return rng.Intn(3) == 0 }
	maybe := func(v float64) float64 {
		if zero() {
			return 0
		}
		return v
	}
	n := func() int {
		if zero() {
			return 0
		}
		return rng.Intn(2001) - 1000
	}
	length := func() int { return rng.Intn(5) - 1 } // -1: nil, 0: empty
	ints := func() []int {
		k := length()
		if k < 0 {
			return nil
		}
		xs := make([]int, k)
		for i := range xs {
			xs[i] = n()
		}
		return xs
	}
	ptr := func() *float64 {
		if zero() {
			return nil
		}
		f := num()
		return &f
	}

	r := &SolveResponse{responseHead: responseHead{
		Schema: rng.Intn(3), RequestID: str(), CacheHit: rng.Intn(2) == 0, Coalesced: zero(), CacheAgeSec: maybe(num()),
	}}
	if !zero() {
		r.Fingerprint = str()
	}
	if rng.Intn(3) == 0 { // an error document, most of them as the service writes one
		r.Error = &ErrorJSON{Kind: str(), Message: str()}
		if rng.Intn(4) > 0 {
			return r
		}
	}
	r.Objective, r.TotalTimeSec, r.PeakMemoryBytes = num(), maybe(num()), int64(n())*1e6
	if k := length(); k >= 0 {
		r.Schedules = make([]ScheduleJSON, k)
		for i := range r.Schedules {
			r.Schedules[i] = ScheduleJSON{
				Name: str(), Enabled: zero(), Count: n(), OutputEvery: n(), Outputs: n(),
				AnalysisSteps: ints(), OutputSteps: ints(), PredictedTimeSec: maybe(num()), PeakMemoryBytes: int64(n()),
			}
		}
	}
	r.Solver = SolverInfo{
		Nodes: n(), Relaxations: n(), Pivots: n(), SolveTimeSec: maybe(num()), Bound: maybe(num()),
		WarmSolves: n(), ColdSolves: n(), FallbackColds: n(), WarmInfeasibles: n(),
		PrimalPivots: n(), DualPivots: n(), Refactorizations: n(), EtaPeak: n(),
	}
	if rng.Intn(2) == 0 {
		ex := &ExplainJSON{TimeSlackSec: ptr(), MemSlackBytes: ptr()}
		if k := length(); k >= 0 {
			ex.Attributions = make([]AttributionJSON, k)
			for i := range ex.Attributions {
				a := AttributionJSON{
					Name: str(), Enabled: zero(), Count: n(), MaxCount: n(), BindingSlack: ptr(),
					ForcedFeasible: zero(), ForcedDelta: maybe(num()),
				}
				if !zero() {
					a.Binding, a.ForcedViolation = str(), str()
				}
				if k := length(); k >= 0 {
					a.Conflict = make([]string, k)
					for j := range a.Conflict {
						a.Conflict[j] = str()
					}
				}
				ex.Attributions[i] = a
			}
		}
		r.Explain = ex
	}
	return r
}

// TestResponseEncodeMatchesJSON is the differential test: 20 000 seeded
// documents against encoding/json.
func TestResponseEncodeMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	encoded, rejected := 0, 0
	drawn := fieldStates{}
	for i := 0; i < 20000; i++ {
		r := randResponse(rng)
		drawn.add("SolveResponse", reflect.ValueOf(r).Elem())
		if checkEncode(t, r) {
			encoded++
		} else {
			rejected++
		}
	}
	if encoded < 5000 || rejected < 1000 {
		t.Fatalf("generator is lopsided: %d documents encoded, %d were rejected", encoded, rejected)
	}
	drawn.check(t)
	// Every listed string and float once on its own, in a head, a schedule,
	// an attribution and an error.
	for _, s := range jsontest.Strings {
		checkEncode(t, &SolveResponse{
			responseHead: responseHead{RequestID: s, Fingerprint: s},
			Schedules:    []ScheduleJSON{{Name: s}},
			Explain:      &ExplainJSON{Attributions: []AttributionJSON{{Name: s, Binding: s, ForcedViolation: s, Conflict: []string{s, s}}}},
			Error:        &ErrorJSON{Kind: s, Message: s},
		})
	}
	for _, f := range jsontest.Floats {
		checkEncode(t, &SolveResponse{responseHead: responseHead{CacheAgeSec: f}})
		checkEncode(t, &SolveResponse{Objective: f, Schedules: []ScheduleJSON{}})
		checkEncode(t, &SolveResponse{Schedules: []ScheduleJSON{{PredictedTimeSec: f}}})
		checkEncode(t, &SolveResponse{Explain: &ExplainJSON{MemSlackBytes: &f, Attributions: []AttributionJSON{{BindingSlack: &f, ForcedDelta: f}}}})
	}
}

// fieldStates records, per field of the wire types at any depth, by path
// ("SolveResponse.Explain.Attributions[].Conflict"), the states the drawn
// documents put it in. The encoder lists every field by hand, so a field
// added to a wire type and not to randResponse would stay zero in the
// differential test, and if it were omitempty its absence from the encoder
// would go unseen; check fails on it instead.
type fieldStates map[string]*struct{ zero, nonZero, empty bool }

func (fs fieldStates) add(path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			fs.add(path, v.Elem())
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			fs.add(path+"[]", v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f, p := v.Field(i), path+"."+v.Type().Field(i).Name
			if fs[p] == nil {
				fs[p] = new(struct{ zero, nonZero, empty bool })
			}
			isSlice := f.Kind() == reflect.Slice
			fs[p].zero = fs[p].zero || f.IsZero()
			fs[p].nonZero = fs[p].nonZero || !f.IsZero() && (!isSlice || f.Len() > 0)
			fs[p].empty = fs[p].empty || isSlice && !f.IsNil() && f.Len() == 0
			fs.add(p, f)
		}
	}
}

// check wants every field of SolveResponse drawn zero and non-zero, and every
// slice also empty but not nil.
func (fs fieldStates) check(t *testing.T) {
	t.Helper()
	fields := map[string]reflect.Type{}
	var list func(path string, typ reflect.Type)
	list = func(path string, typ reflect.Type) {
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
			if typ.Kind() == reflect.Slice {
				path += "[]"
			}
			typ = typ.Elem()
		}
		for i := 0; typ.Kind() == reflect.Struct && i < typ.NumField(); i++ {
			f := typ.Field(i)
			fields[path+"."+f.Name] = f.Type
			list(path+"."+f.Name, f.Type)
		}
	}
	list("SolveResponse", reflect.TypeOf(SolveResponse{}))
	for p, typ := range fields {
		s := fs[p]
		if s == nil || !s.zero || !s.nonZero || typ.Kind() == reflect.Slice && !s.empty {
			t.Errorf("%s is not drawn in every state (zero, non-zero, empty slice): %+v", p, s)
		}
	}
}

// TestResponseEncodeFirstErrorWins pins the order floats are visited in: the
// error names the first non-finite value in field order, as encoding/json's
// does.
func TestResponseEncodeFirstErrorWins(t *testing.T) {
	nan, inf, ninf := math.NaN(), math.Inf(1), math.Inf(-1)
	for _, r := range []*SolveResponse{
		{responseHead: responseHead{CacheAgeSec: nan}, Objective: inf},
		{Objective: ninf, TotalTimeSec: nan},
		{Schedules: []ScheduleJSON{{PredictedTimeSec: inf}}, Solver: SolverInfo{SolveTimeSec: nan}},
		{Solver: SolverInfo{Bound: ninf}, Explain: &ExplainJSON{TimeSlackSec: &nan}},
		{Explain: &ExplainJSON{MemSlackBytes: &inf, Attributions: []AttributionJSON{{BindingSlack: &nan}}}},
		{Explain: &ExplainJSON{Attributions: []AttributionJSON{{BindingSlack: &ninf, ForcedDelta: nan}}}},
	} {
		if checkEncode(t, r) {
			t.Fatalf("%+v encoded", r)
		}
	}
}

// TestTailAllocationBudget: rendering a tail allocates nothing but the buffer
// it appends to, so into one with room it allocates nothing at all.
func TestTailAllocationBudget(t *testing.T) {
	s := New(Config{})
	req := SolveRequest{Scenario: testScenario(), Explain: true}
	if w := serve(s.Handler(), "", marshalRequest(t, req)); w.code != http.StatusOK {
		t.Fatalf("status %d: %s", w.code, w.buf.Bytes())
	}
	resp := buildResponse(responseHead{}, s.entry(req).val)
	buf := make([]byte, 0, 64<<10)
	render := func() {
		w := replyWriter{b: buf[:0]}
		w.appendTail(resp)
		buf = w.b
	}
	if n := testing.AllocsPerRun(100, render); n != 0 {
		t.Fatalf("rendering a tail allocates %v objects besides its buffer", n)
	}
	if !bytes.Equal(buf, s.entry(req).val.tail) {
		t.Fatal("the tail rendered again differs from the cached one")
	}
}

// TestExplainOmitsSlacks: an unset threshold leaves its slack unbounded,
// which the reply omits instead of failing to encode; a zero binding slack (a
// min-interval binding, here every analysis's) is omitted too, as omitempty
// always left it.
func TestExplainOmitsSlacks(t *testing.T) {
	for _, c := range []struct {
		name      string
		envelope  func(*SolveRequest)
		key, kept string
	}{
		{"memory unset", func(r *SolveRequest) { r.Scenario.Resources.MemBytes = 0 }, "mem_slack_bytes", "time_slack_sec"},
		{"time unset", func(r *SolveRequest) { r.Scenario.Resources.TimeSec = 0 }, "time_slack_sec", "mem_slack_bytes"},
		{"room for every step", func(r *SolveRequest) { r.Scenario.Resources.TimeSec *= 1e3 }, "binding_slack", "time_slack_sec"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := New(Config{})
			req := SolveRequest{Scenario: nastyScenario(nastyNames), Explain: true}
			c.envelope(&req)
			w := serve(s.Handler(), "slacks", marshalRequest(t, req))
			checkSpliced(t, c.name, s, req, "slacks", w) // status 200, the encoder's bytes
			doc := w.buf.String()
			if strings.Contains(doc, `"`+c.key+`"`) || !strings.Contains(doc, `"`+c.kept+`"`) {
				t.Fatalf("want %s omitted and %s kept:\n%s", c.key, c.kept, doc)
			}
		})
	}
}

// TestReplyHasNoWorkersKey pins the reply's solver object: its always-present
// keys, and no "workers" key, since every solve runs at the default search
// width.
func TestReplyHasNoWorkersKey(t *testing.T) {
	w := serve(New(Config{}).Handler(), "keys", marshalRequest(t, SolveRequest{Scenario: testScenario()}))
	if w.code != http.StatusOK {
		t.Fatalf("status %d: %s", w.code, w.buf.Bytes())
	}
	var doc struct {
		Solver map[string]json.RawMessage `json:"solver"`
	}
	if err := json.Unmarshal(w.buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc.Solver["workers"]; ok {
		t.Fatalf("solver object carries a workers key: %s", w.buf.Bytes())
	}
	for _, k := range []string{"nodes", "relaxations", "pivots", "solve_time_sec", "bound", "warm_solves", "cold_solves"} {
		if _, ok := doc.Solver[k]; !ok {
			t.Fatalf("solver object lacks %q: %s", k, w.buf.Bytes())
		}
	}
}
