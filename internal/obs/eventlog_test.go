package obs

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEventLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	l.SetClock(newFakeClock(time.Millisecond).now)

	l.Append(LedgerEvent{Type: LedgerRunStart, Name: "mdsim", Args: map[string]float64{"steps": 4}})
	l.Event(LedgerStep, "", 1, 2*time.Millisecond)
	l.Append(LedgerEvent{Type: LedgerAnalysis, Name: "rdf", Step: 1, Dur: 500})
	l.Append(LedgerEvent{Type: LedgerOutput, Name: "rdf", Step: 1, Dur: 120, Bytes: 4096})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 4 {
		t.Fatalf("len = %d", l.Len())
	}

	events, err := ReadLedger(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("read %d events, want 4", len(events))
	}
	for i, e := range events {
		if e.Schema != LedgerSchemaVersion {
			t.Fatalf("event %d schema = %d", i, e.Schema)
		}
	}
	if events[0].Type != LedgerRunStart || events[0].Args["steps"] != 4 {
		t.Fatalf("run_start = %+v", events[0])
	}
	if events[1].Dur != 2000 {
		t.Fatalf("step dur = %g us, want 2000", events[1].Dur)
	}
	if events[3].Bytes != 4096 {
		t.Fatalf("output bytes = %d", events[3].Bytes)
	}
}

func TestEventLogDeterministicBytes(t *testing.T) {
	write := func() string {
		var buf bytes.Buffer
		l := NewEventLog(&buf)
		l.SetClock(newFakeClock(time.Millisecond).now)
		l.Append(LedgerEvent{Type: LedgerSolve, Name: "plan", Dur: 10,
			Args: map[string]float64{"nodes": 3, "pivots": 17, "objective": 41}})
		l.Close()
		return buf.String()
	}
	a, b := write(), write()
	if a != b {
		t.Fatalf("ledger not byte-stable:\n%s\n%s", a, b)
	}
	// Map keys are sorted by encoding/json, so the line is a fixed string.
	want := `{"v":2,"type":"solve","name":"plan","ts_us":1000,"dur_us":10,"args":{"nodes":3,"objective":41,"pivots":17}}` + "\n"
	if a != want {
		t.Fatalf("ledger line:\n got %s\nwant %s", a, want)
	}
}

func TestEventLogSchemaRejection(t *testing.T) {
	// Future-schema lines are skipped (forward compatibility), not an
	// error; see TestReadLedgerSkipsNewerSchema.
	events, err := ReadLedger(strings.NewReader(`{"v":99,"type":"step"}`))
	if err != nil || len(events) != 0 {
		t.Fatalf("future schema: events=%v err=%v", events, err)
	}
	if _, err := ReadLedger(strings.NewReader("not json")); err == nil {
		t.Fatal("malformed line accepted")
	}
	// Blank lines are fine.
	blank, err := ReadLedger(strings.NewReader("\n\n" + `{"v":2,"type":"step","step":1}` + "\n\n"))
	if err != nil || len(blank) != 1 {
		t.Fatalf("events=%v err=%v", blank, err)
	}
	// An older line is refused by name: no v1 reader is kept.
	if _, err := ReadLedger(strings.NewReader(`{"v":1,"type":"step","step":1}`)); err == nil || !strings.Contains(err.Error(), "v1") {
		t.Fatalf("v1 line: err = %v, want one naming v1", err)
	}
}

func TestEventLogNilAndErrors(t *testing.T) {
	var l *EventLog
	l.Append(LedgerEvent{Type: LedgerStep})
	l.Event(LedgerStep, "", 1, time.Second)
	l.SetClock(time.Now)
	if l.Len() != 0 || l.Err() != nil || l.Close() != nil {
		t.Fatal("nil event log not a no-op")
	}

	// Write failures are sticky.
	fl := NewEventLog(failWriter{})
	fl.Append(LedgerEvent{Type: LedgerStep, Step: 1})
	if fl.Err() == nil {
		t.Fatal("failing writer error not captured")
	}
	before := fl.Err()
	fl.Append(LedgerEvent{Type: LedgerStep, Step: 2})
	if fl.Err() != before {
		t.Fatal("first error not sticky")
	}
}

// lineRecorder keeps every Write it receives, and fails them all once
// failAfter writes have succeeded (negative: never).
type lineRecorder struct {
	writes    []string
	failAfter int
}

func (w *lineRecorder) Write(p []byte) (int, error) {
	if w.failAfter >= 0 && len(w.writes) >= w.failAfter {
		return 0, errors.New("sink full")
	}
	w.writes = append(w.writes, string(p))
	return len(p), nil
}

// TestEventLogOneWritePerLine pins the audit-trail property: when Append
// returns, the writer has received the event as exactly one Write holding one
// complete newline-terminated line — nothing is held back for a later flush.
func TestEventLogOneWritePerLine(t *testing.T) {
	w := &lineRecorder{failAfter: -1}
	l := NewEventLog(w)
	events := []LedgerEvent{
		{Type: LedgerRunStart, Name: "app", Args: map[string]float64{"steps": 2, "kernels": 1}},
		{Type: LedgerStep, Step: 1, Dur: 12.5},
		{Type: LedgerOutput, Name: `quo"ted`, Step: 1, Dur: 3, Bytes: 4096},
		{Type: LedgerRunEnd, Args: map[string]float64{"sim_seconds": 1e-9}},
	}
	for i, e := range events {
		l.Append(e)
		if len(w.writes) != i+1 {
			t.Fatalf("after append %d the writer has seen %d writes", i+1, len(w.writes))
		}
		line := w.writes[i]
		if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
			t.Fatalf("write %d is not one terminated line: %q", i, line)
		}
		got, err := ParseLedgerEvent([]byte(strings.TrimSuffix(line, "\n")))
		if err != nil || got.Type != e.Type || got.Name != e.Name || got.Step != e.Step {
			t.Fatalf("write %d = %q (%v), want event %+v", i, line, err, e)
		}
	}
	if err := l.Close(); err != nil || len(w.writes) != len(events) {
		t.Fatalf("close: %v, %d writes", err, len(w.writes))
	}
}

// TestEventLogFailingWriterDropsLaterAppends: the first write error sticks,
// and nothing is offered to the writer after it.
func TestEventLogFailingWriterDropsLaterAppends(t *testing.T) {
	w := &lineRecorder{failAfter: 2}
	l := NewEventLog(w)
	for step := 1; step <= 5; step++ {
		l.Append(LedgerEvent{Type: LedgerStep, Step: step})
	}
	if l.Err() == nil || l.Err().Error() != "sink full" {
		t.Fatalf("sticky error = %v", l.Err())
	}
	if l.Len() != 2 || len(w.writes) != 2 {
		t.Fatalf("len = %d, writes = %d, want 2 and 2", l.Len(), len(w.writes))
	}
	if err := l.Close(); err == nil || err != l.Err() {
		t.Fatalf("close = %v, want the sticky error", err)
	}
}

// TestEventLogAppendAt: a caller's reading stamps an unset timestamp, a set
// timestamp wins, and the zero time falls back to the log's clock.
func TestEventLogAppendAt(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	clock := newFakeClock(time.Millisecond)
	l.SetClock(clock.now) // epoch at +1 ms
	at := time.Unix(1000, 0).Add(251 * time.Millisecond)
	l.AppendAt(at, LedgerEvent{Type: LedgerStep, Step: 1})
	l.AppendAt(at, LedgerEvent{Type: LedgerStep, Step: 2, TS: 7})
	l.AppendAt(time.Time{}, LedgerEvent{Type: LedgerStep, Step: 3}) // reads the clock: +2 ms
	events, err := ReadLedger(&buf)
	if err != nil || len(events) != 3 {
		t.Fatalf("events = %v, %v", events, err)
	}
	if events[0].TS != 250000 || events[1].TS != 7 || events[2].TS != 1000 {
		t.Fatalf("ts_us = %g, %g, %g; want 250000, 7, 1000", events[0].TS, events[1].TS, events[2].TS)
	}
}

// TestEventLogAppendAllocatesNothing: once the line buffer has grown, a step
// event — and an event with args — is encoded and written without a single
// allocation.
func TestEventLogAppendAllocatesNothing(t *testing.T) {
	l := NewEventLog(io.Discard)
	args := map[string]float64{"nodes": 3, "pivots": 17, "objective": 41.5}
	l.Append(LedgerEvent{Type: LedgerSolve, Name: "plan", Dur: 10, Args: args})
	step := 0
	if n := testing.AllocsPerRun(1000, func() {
		step++
		l.Event(LedgerStep, "", step, 1500*time.Nanosecond)
	}); n != 0 {
		t.Fatalf("appending a step event allocates %v times", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		l.Append(LedgerEvent{Type: LedgerSolve, Name: "plan", Dur: 10, Args: args})
	}); n != 0 {
		t.Fatalf("appending an event with args allocates %v times", n)
	}
	if err := l.Err(); err != nil || l.Len() != 2003 { // AllocsPerRun warms up once
		t.Fatalf("err = %v, len = %d", err, l.Len())
	}
}

func TestEventLogFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	l, err := OpenEventLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	l.Event(LedgerStep, "", 1, time.Millisecond)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadLedgerFile(path)
	if err != nil || len(events) != 1 {
		t.Fatalf("events=%v err=%v", events, err)
	}
	if _, err := OpenEventLog(filepath.Join(t.TempDir(), "no", "such", "dir", "x.jsonl"), 0); err == nil {
		t.Fatal("unwritable ledger path accepted")
	}
	if _, err := ReadLedgerFile(filepath.Join(t.TempDir(), "absent.jsonl")); err == nil {
		t.Fatal("absent ledger file accepted")
	}
}

func TestEventLogConcurrent(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.Event(LedgerStep, "", g*50+i, time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadLedger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 400 {
		t.Fatalf("events = %d, want 400", len(events))
	}
}

func TestReadLedgerSkipsNewerSchema(t *testing.T) {
	input := `{"v":2,"type":"run_start","name":"app"}
{"v":3,"type":"hologram","name":"future"}
{"v":2,"type":"step","step":1,"ts_us":5,"dur_us":100}
{"v":9,"type":"step","step":2,"ts_us":6,"dur_us":100}
`
	events, err := ReadLedger(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	// The two v2 lines survive, in order; both newer lines are skipped.
	if len(events) != 2 || events[0].Type != LedgerRunStart || events[1].Step != 1 {
		t.Fatalf("kept %+v, want run_start then step 1", events)
	}
}

func TestReadLedgerRejectsMissingSchema(t *testing.T) {
	if _, err := ReadLedger(strings.NewReader(`{"type":"step","step":1}`)); err == nil {
		t.Fatal("want error for line without a schema version")
	}
	if _, err := ReadLedger(strings.NewReader(`{nope`)); err == nil {
		t.Fatal("want error for malformed JSON")
	}
}
