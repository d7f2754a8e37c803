package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock advances a fixed amount per reading, like the perfmodel tests.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	tick time.Duration
}

func newFakeClock(tick time.Duration) *fakeClock {
	return &fakeClock{t: time.Unix(1000, 0), tick: tick}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.tick)
	return c.t
}

func TestTracerSpansDeterministic(t *testing.T) {
	tr := NewTracer()
	tr.SetClock(newFakeClock(time.Millisecond).now)

	outer := tr.Begin("step", "sim").Arg("step", 1)
	inner := tr.Begin("rdf.analyze", "kernel")
	inner.End()
	outer.End()

	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	// Sorted by start: outer opened first.
	if evs[0].Name != "step" || evs[1].Name != "rdf.analyze" {
		t.Fatalf("order = %s, %s", evs[0].Name, evs[1].Name)
	}
	// Nesting: the kernel span lies inside the step span.
	if evs[1].Start < evs[0].Start || evs[1].Start+evs[1].Dur > evs[0].Start+evs[0].Dur {
		t.Fatalf("kernel span [%v,+%v] not inside step span [%v,+%v]",
			evs[1].Start, evs[1].Dur, evs[0].Start, evs[0].Dur)
	}
	if evs[0].Args["step"] != 1 {
		t.Fatalf("args = %v", evs[0].Args)
	}
}

// chromeTrace mirrors the trace_event JSON object format for parsing back.
type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"` // numeric for events, string for metadata
}

func TestWriteChromeTraceRoundTrip(t *testing.T) {
	tr := NewTracer()
	tr.SetClock(newFakeClock(time.Millisecond).now)
	sp := tr.Begin("step", "sim")
	tr.Instant("incumbent", "solver", map[string]float64{"objective": 42})
	tr.Counter("backlog", 7)
	sp.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, buf.String())
	}
	// Three timeline events plus the process_name metadata event.
	if len(parsed.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(parsed.TraceEvents))
	}
	byPh := map[string]int{}
	for _, e := range parsed.TraceEvents {
		byPh[e.Ph]++
		if e.Pid != 1 {
			t.Fatalf("pid = %d", e.Pid)
		}
	}
	if byPh["X"] != 1 || byPh["i"] != 1 || byPh["C"] != 1 || byPh["M"] != 1 {
		t.Fatalf("phases = %v", byPh)
	}

	// Byte-stable under the injected clock.
	var buf2 bytes.Buffer
	if err := tr.WriteChromeTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("trace export not byte-stable")
	}
}

func TestWriteCSV(t *testing.T) {
	tr := NewTracer()
	tr.SetClock(newFakeClock(time.Millisecond).now)
	tr.Begin("a,b", "cat").End()
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %q", lines)
	}
	if lines[0] != "track,phase,cat,name,start_us,dur_us" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "a;b") {
		t.Fatalf("comma not escaped: %q", lines[1])
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(track int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := tr.BeginOn(track, "work", "test")
				tr.Counter("n", float64(i))
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	if got := tr.Len(); got != 8*200 {
		t.Fatalf("events = %d, want %d", got, 8*200)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("invalid JSON from concurrent trace")
	}
}

// TestChromeTraceMetadataGolden pins the exact metadata prelude: Perfetto
// keys process_name/thread_name off these events, so the golden string is
// the contract.
func TestChromeTraceMetadataGolden(t *testing.T) {
	tr := NewTracer()
	tr.SetClock(newFakeClock(time.Millisecond).now)
	tr.SetProcessName("mdsim")
	tr.SetTrackName(0, "simulation")
	tr.SetTrackName(1, "staging-0")
	tr.Begin("step", "sim").End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[` +
		`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"mdsim"}},` +
		`{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"simulation"}},` +
		`{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"staging-0"}},` +
		`{"name":"step","cat":"sim","ph":"X","pid":1,"tid":0,"ts":1000.000,"dur":1000.000}` +
		"]}\n"
	if got := buf.String(); got != want {
		t.Fatalf("metadata golden mismatch:\n got %s\nwant %s", got, want)
	}
}

// TestChromeTraceDefaultProcessName checks the unnamed-tracer default.
func TestChromeTraceDefaultProcessName(t *testing.T) {
	tr := NewTracer()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"insitu"}}]}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("default metadata:\n got %s\nwant %s", got, want)
	}
	var nilTr *Tracer
	nilTr.SetProcessName("x") // must not panic
	nilTr.SetTrackName(0, "y")
}

func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin("x", "y")
	sp.Arg("k", 1)
	sp.End()
	tr.Instant("i", "c", nil)
	tr.Counter("c", 1)
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer recorded events")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("nil tracer export invalid: %q", buf.String())
	}
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
}
