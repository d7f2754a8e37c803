package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// Sinks is the telemetry a CLI run writes to files: -trace, -metrics and
// (optionally) -ledger. Trace, Metrics and Ledger stay nil for a flag left
// unset, and every handle is nil-safe, so callers pass them on unconditionally.
type Sinks struct {
	Trace   *Tracer
	Metrics *Registry
	Ledger  *EventLog

	tracePath, metricsPath, ledgerPath string
}

// SinkFlags registers -trace and -metrics, and -ledger when withLedger, on fs.
func SinkFlags(fs *flag.FlagSet, withLedger bool) *Sinks {
	s := &Sinks{}
	fs.StringVar(&s.tracePath, "trace", "", "write the run as Chrome trace JSON to this file")
	fs.StringVar(&s.metricsPath, "metrics", "", "write run metrics to this file (Prometheus text, or JSON with a .json suffix)")
	if withLedger {
		fs.StringVar(&s.ledgerPath, "ledger", "", "write the run as a JSONL event ledger to this file")
	}
	return s
}

// Open creates the sinks whose flags were given; call it after fs.Parse.
func (s *Sinks) Open() error {
	if s.tracePath != "" {
		s.Trace = NewTracer()
	}
	if s.metricsPath != "" {
		s.Metrics = NewRegistry()
	}
	if s.ledgerPath != "" {
		var err error
		s.Ledger, err = OpenEventLog(s.ledgerPath, 0)
		return err
	}
	return nil
}

// Close writes the trace and metrics files, closes the ledger, and reports
// each file written as one line on w.
func (s *Sinks) Close(w io.Writer) error {
	if s.Trace != nil {
		if err := WriteTraceFile(s.tracePath, s.Trace); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote trace (%d events) to %s\n", s.Trace.Len(), s.tracePath)
	}
	if s.Metrics != nil {
		if err := WriteMetricsFile(s.metricsPath, s.Metrics); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote metrics to %s\n", s.metricsPath)
	}
	if s.Ledger != nil {
		if err := s.Ledger.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote ledger (%d events) to %s\n", s.Ledger.Len(), s.ledgerPath)
	}
	return nil
}

// WriteTraceFile writes t's timeline as Chrome trace JSON to path
// (chrome://tracing / Perfetto format). A nil tracer writes an empty trace.
func WriteTraceFile(path string, t *Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteMetricsFile writes r's snapshot to path: JSON when the path ends in
// .json, Prometheus text exposition format otherwise. A nil registry writes
// an empty snapshot.
func WriteMetricsFile(path string, r *Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	write := r.WritePrometheus
	if strings.HasSuffix(path, ".json") {
		write = r.WriteJSON
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
