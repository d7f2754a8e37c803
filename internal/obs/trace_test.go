package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
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
}

// TestTracerTimelineGolden records one fixed event set under the fake clock —
// nested and overlapping spans on two tracks with zero to three arguments,
// an instant, a counter — and holds Events() and WriteChromeTrace to what the heap-span tracer (before spans became slots) produced for it.
// The span left open at the end never appears.
func TestTracerTimelineGolden(t *testing.T) {
	tr := NewTracer()
	tr.SetClock(newFakeClock(time.Millisecond).now)
	tr.SetProcessName("golden")
	tr.SetTrackName(0, "sim+analysis")
	tr.SetTrackName(1, "staging-0")
	step := tr.Begin("step", "sim").Arg("step", 1)
	tr.Begin("advance", "sim").End()
	tr.Begin("rdf/analyze", "kernel").Arg("step", 1).End()
	capture := tr.Begin("msd/capture", "transfer").Arg("step", 1)
	staged := tr.BeginOn(1, "msd/staged", "staged")
	capture.Arg("bytes", 4096).End()
	tr.Instant("incumbent", "solver", map[string]float64{"objective": 42, "node": 7})
	tr.Counter("backlog", 3)
	tr.Begin("solve", "solver").Arg("nodes", 5).Arg("pivots", 40).Arg("gap", 0.125).Arg("nodes", 6).End()
	staged.End()
	step.End()
	tr.Begin("never-ended", "sim").Arg("step", 2)

	var lines []string
	for _, e := range tr.Events() {
		lines = append(lines, fmt.Sprintf("%s %s %c %d %v %v %v", e.Name, e.Cat, e.Phase, e.Track, e.Start, e.Dur, e.Args))
	}
	wantEvents := []string{
		"step sim X 0 1ms 13ms map[step:1]",
		"advance sim X 0 2ms 1ms map[]",
		"rdf/analyze kernel X 0 4ms 1ms map[step:1]",
		"msd/capture transfer X 0 6ms 2ms map[bytes:4096 step:1]",
		"msd/staged staged X 1 7ms 6ms map[]",
		"incumbent solver i 0 9ms 0s map[node:7 objective:42]",
		"backlog counter C 0 10ms 0s map[value:3]",
		"solve solver X 0 11ms 1ms map[gap:0.125 nodes:6 pivots:40]",
	}
	if got, want := strings.Join(lines, "\n"), strings.Join(wantEvents, "\n"); got != want {
		t.Fatalf("Events():\n%s\nwant:\n%s", got, want)
	}
	if tr.Len() != len(wantEvents) {
		t.Fatalf("Len() = %d, want %d", tr.Len(), len(wantEvents))
	}

	want, err := os.ReadFile(filepath.Join("testdata", "trace_timeline.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteChromeTrace:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestOpenSpanInvisibleUntilEnd: a span occupies its slot from Begin on, but
// no reader sees it — arguments included — before End seals it.
func TestOpenSpanInvisibleUntilEnd(t *testing.T) {
	tr := NewTracer()
	tr.SetClock(newFakeClock(time.Millisecond).now)
	export := func() string {
		var b strings.Builder
		if err := tr.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	empty := export()
	outer := tr.Begin("outer", "test").Arg("a", 1)
	inner := tr.Begin("inner", "test")
	if tr.Len() != 0 || tr.Events() != nil || export() != empty {
		t.Fatalf("open spans are visible: len %d, events %v", tr.Len(), tr.Events())
	}
	inner.End()
	if evs := tr.Events(); tr.Len() != 1 || len(evs) != 1 || evs[0].Name != "inner" {
		t.Fatalf("after inner.End: len %d, events %v", tr.Len(), evs)
	}
	if strings.Contains(export(), "outer") {
		t.Fatal("the open outer span reached an export")
	}
	outer.Arg("b", 2).Arg("c", 3).End()
	evs := tr.Events()
	if tr.Len() != 2 || len(evs) != 2 || evs[0].Name != "outer" {
		t.Fatalf("after outer.End: len %d, events %v", tr.Len(), evs)
	}
	// Three arguments: two inline, one beyond.
	if want := map[string]float64{"a": 1, "b": 2, "c": 3}; !reflect.DeepEqual(evs[0].Args, want) {
		t.Fatalf("args = %v, want %v", evs[0].Args, want)
	}
	if !strings.Contains(export(), `"args":{"a":1,"b":2,"c":3}`) {
		t.Fatalf("export lacks the three arguments:\n%s", export())
	}
}

// TestSpanAtCallerReadings: BeginAt and EndAt place the span at the caller's
// readings without consulting the tracer's clock.
func TestSpanAtCallerReadings(t *testing.T) {
	tr := NewTracer()
	reads := 0
	base := time.Unix(1000, 0)
	tr.SetClock(func() time.Time { reads++; return base })
	sp := tr.BeginAt(base.Add(3*time.Millisecond), 2, "region", "test")
	sp.EndAt(base.Add(10 * time.Millisecond))
	sp.EndAt(base.Add(20 * time.Millisecond)) // idempotent
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Track != 2 || evs[0].Start != 3*time.Millisecond || evs[0].Dur != 7*time.Millisecond {
		t.Fatalf("events = %+v", evs)
	}
	if reads != 1 { // SetClock's epoch reading
		t.Fatalf("the tracer read its clock %d times", reads)
	}
	var none Span
	none.Arg("k", 1).EndAt(base) // the zero Span is a no-op
	(*Tracer)(nil).BeginAt(base, 0, "x", "y").Arg("k", 1).End()
}

// TestSpanAllocatesNothingAmortised: a span is a slot write; the only
// allocation is one chunk per slotsPerChunk spans, which rounds to none.
func TestSpanAllocatesNothingAmortised(t *testing.T) {
	tr := NewTracer()
	if n := testing.AllocsPerRun(4*slotsPerChunk, func() {
		tr.Begin("capture", "transfer").Arg("step", 7).Arg("bytes", 4096).End()
	}); n != 0 {
		t.Fatalf("Begin+Arg+Arg+End allocates %v times", n)
	}
	if tr.Len() != 4*slotsPerChunk+1 {
		t.Fatalf("len = %d", tr.Len())
	}
}

// TestSpanSlotLayout pins the stored form of a span: 56 bytes with no
// pointers, so a chunk is one 28 KiB noscan allocation the collector never
// scans.
func TestSpanSlotLayout(t *testing.T) {
	if size := unsafe.Sizeof(slot{}); size != 56 || slotsPerChunk*size != 28672 {
		t.Fatalf("a slot is %d bytes and a chunk %d, want 56 and 28672", size, slotsPerChunk*size)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.String, reflect.Map, reflect.Slice, reflect.Pointer, reflect.UnsafePointer,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("slot field %s is a %s, which holds a pointer", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		}
	}
	walk("slot", reflect.TypeOf(slot{}))
}

// TestInstantOwnsItsArgs: an Instant copies its arguments when it is
// recorded, and every reader gets maps of its own, so neither the caller
// reusing its map nor a reader editing Events' Args changes the timeline.
func TestInstantOwnsItsArgs(t *testing.T) {
	tr := NewTracer()
	tr.SetClock(newFakeClock(time.Millisecond).now)
	args := map[string]float64{"objective": 42, "node": 7, "depth": 3}
	tr.Instant("incumbent", "solver", args)
	tr.Begin("solve", "solver").Arg("nodes", 5).Arg("pivots", 40).Arg("gap", 0.125).End()
	export := func() string {
		var b strings.Builder
		if err := tr.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	wantEvents, wantTrace := fmt.Sprint(tr.Events()), export() // fmt prints map keys sorted

	args["objective"], args["node"] = -1, -1 // the caller reuses its map
	delete(args, "depth")
	args["late"] = 1
	for _, e := range tr.Events() { // a reader edits what it was handed
		e.Args["nodes"], e.Args["objective"] = -2, -2
		delete(e.Args, "node")
	}
	if got := fmt.Sprint(tr.Events()); got != wantEvents {
		t.Fatalf("Events() changed:\n got %s\nwant %s", got, wantEvents)
	}
	if got := export(); got != wantTrace {
		t.Fatalf("WriteChromeTrace changed:\n got %s\nwant %s", got, wantTrace)
	}
	if !strings.Contains(wantTrace, `"args":{"depth":3,"node":7,"objective":42}`) {
		t.Fatalf("the instant's arguments are missing:\n%s", wantTrace)
	}
}
