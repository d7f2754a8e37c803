package obs

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// failWriter fails every write; the file helpers and exporters must surface
// the error instead of swallowing it.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("sink full") }

func TestWriteTraceFileRoundTrip(t *testing.T) {
	tr := NewTracer()
	tr.Begin("step", "sim").End()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteTraceFile(path, tr); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"name":"step"`) {
		t.Fatalf("trace file missing span: %s", data)
	}
}

func TestWriteTraceFileNilTracer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.json")
	if err := WriteTraceFile(path, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(data)) != `{"traceEvents":[]}` {
		t.Fatalf("nil tracer file = %q", data)
	}
}

func TestWriteTraceFileUnwritablePath(t *testing.T) {
	err := WriteTraceFile(filepath.Join(t.TempDir(), "no", "such", "dir", "t.json"), NewTracer())
	if err == nil {
		t.Fatal("unwritable trace path accepted")
	}
	// A directory as the target also fails at create time.
	if err := WriteTraceFile(t.TempDir(), NewTracer()); err == nil {
		t.Fatal("directory as trace path accepted")
	}
}

func TestWriteMetricsFileFormats(t *testing.T) {
	r := NewRegistry()
	r.Counter("n", nil).Add(2)
	dir := t.TempDir()

	jsonPath := filepath.Join(dir, "m.json")
	if err := WriteMetricsFile(jsonPath, r); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind": "counter"`) {
		t.Fatalf("json metrics file = %s", data)
	}

	promPath := filepath.Join(dir, "m.txt")
	if err := WriteMetricsFile(promPath, r); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "# TYPE n counter") {
		t.Fatalf("prometheus metrics file = %s", data)
	}
}

func TestWriteMetricsFileNilRegistry(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "nil.json")
	if err := WriteMetricsFile(jsonPath, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(data)) != "[]" {
		t.Fatalf("nil registry json = %q", data)
	}
	promPath := filepath.Join(dir, "nil.txt")
	if err := WriteMetricsFile(promPath, nil); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("nil registry prometheus = %q", data)
	}
}

func TestWriteMetricsFileUnwritablePath(t *testing.T) {
	if err := WriteMetricsFile(filepath.Join(t.TempDir(), "no", "dir", "m.json"), NewRegistry()); err == nil {
		t.Fatal("unwritable metrics path accepted")
	}
	if err := WriteMetricsFile(t.TempDir(), NewRegistry()); err == nil {
		t.Fatal("directory as metrics path accepted")
	}
}

// TestExportersSurfaceWriteFailures exercises the write-failure path of
// every exporter the file helpers route through.
func TestExportersSurfaceWriteFailures(t *testing.T) {
	tr := NewTracer()
	tr.Begin("a", "b").End()
	if err := tr.WriteChromeTrace(failWriter{}); err == nil {
		t.Fatal("WriteChromeTrace ignored write failure")
	}
	var nilTr *Tracer
	if err := nilTr.WriteChromeTrace(failWriter{}); err == nil {
		t.Fatal("nil-tracer WriteChromeTrace ignored write failure")
	}

	r := NewRegistry()
	r.Counter("n", nil).Inc()
	r.Histogram("h", nil, nil).Observe(1)
	if err := r.WritePrometheus(failWriter{}); err == nil {
		t.Fatal("WritePrometheus ignored write failure")
	}
	if err := r.WriteJSON(failWriter{}); err == nil {
		t.Fatal("WriteJSON ignored write failure")
	}
	var nilReg *Registry
	if err := nilReg.WriteJSON(failWriter{}); err == nil {
		t.Fatal("nil-registry WriteJSON ignored write failure")
	}
}

// TestSinksFlagsToFiles walks the CLI helper end to end: only the sinks whose
// flags were given exist, Close writes each one's file and reports it, and
// -ledger is registered only on request.
func TestSinksFlagsToFiles(t *testing.T) {
	dir := t.TempDir()
	trace, ledger := filepath.Join(dir, "trace.json"), filepath.Join(dir, "run.jsonl")
	fs := flag.NewFlagSet("cli", flag.ContinueOnError)
	s := SinkFlags(fs, true)
	if err := fs.Parse([]string{"-trace", trace, "-ledger", ledger}); err != nil {
		t.Fatal(err)
	}
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	if s.Trace == nil || s.Ledger == nil || s.Metrics != nil {
		t.Fatalf("sinks after -trace -ledger: %+v", s)
	}
	s.Trace.Begin("step", "sim").End()
	s.Ledger.Append(LedgerEvent{Type: LedgerStep, Step: 1})
	var out bytes.Buffer
	if err := s.Close(&out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "wrote trace (1 events) to "+trace+"\nwrote ledger (1 events) to "+ledger+"\n" {
		t.Fatalf("Close reported %q", got)
	}
	if events, err := ReadLedgerFile(ledger); err != nil || len(events) != 1 {
		t.Fatalf("ledger file: %d events, %v", len(events), err)
	}
	if data, err := os.ReadFile(trace); err != nil || !strings.Contains(string(data), `"name":"step"`) {
		t.Fatalf("trace file: %s, %v", data, err)
	}

	fs = flag.NewFlagSet("cli", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	SinkFlags(fs, false)
	if err := fs.Parse([]string{"-ledger", ledger}); err == nil {
		t.Fatal("-ledger accepted though not registered")
	}
	// An unopenable ledger path is Open's error, before any run starts.
	fs = flag.NewFlagSet("cli", flag.ContinueOnError)
	s = SinkFlags(fs, true)
	if err := fs.Parse([]string{"-ledger", filepath.Join(dir, "absent", "run.jsonl")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Open(); err == nil {
		t.Fatal("Open accepted an unwritable ledger path")
	}
}
