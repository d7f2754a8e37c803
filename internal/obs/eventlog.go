package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// LedgerSchemaVersion is the schema carried in every ledger line, and the
// only one a reader reads: an older line is an error, a newer one is skipped.
// It versions the typed payloads too (see RecordEvent), which carry no
// version of their own.
const LedgerSchemaVersion = 2

// Ledger event types. The set is open — emitters may add their own, and
// readers skip types they do not know — but these are the ones the coupling
// runner, campaign and schedd write and that runmon reads.
const (
	LedgerRunStart  = "run_start" // one per run: args carry steps, kernels
	LedgerRunEnd    = "run_end"   // one per run: args carry totals
	LedgerStep      = "step"      // one per simulation step
	LedgerAnalysis  = "analysis"  // one kernel analysis invocation
	LedgerOutput    = "output"    // one kernel output invocation
	LedgerSolve     = "solve"     // one MILP solve: args carry nodes, pivots, objective
	LedgerPlan      = "plan"      // predicted profile for one stream, written by monitored runs
	LedgerAlert     = "alert"     // a runmon drift or budget alert (runmon.Alert)
	LedgerReplan    = "replan"    // a mid-run reschedule decision (runmon.ReplanRecord)
	LedgerSolveProg = "solveprog" // one solver flight-recorder sample (SolveProgress)
	LedgerReqLog    = "reqlog"    // one service request, the schedd access ledger
)

// LedgerEvent is one line of the JSONL run ledger. Times are offsets from
// the log's epoch in microseconds, like the Chrome trace export, so ledgers
// written under an injected clock are deterministic.
type LedgerEvent struct {
	Schema int    `json:"v"`
	Type   string `json:"type"`
	// Name identifies the actor: the kernel for analysis/output events, the
	// phase name for phase events, the application for run_start.
	Name string `json:"name,omitempty"`
	// Step is the 1-based simulation step, 0 for run-level events.
	Step int     `json:"step,omitempty"`
	TS   float64 `json:"ts_us"`            // offset from the ledger epoch
	Dur  float64 `json:"dur_us,omitempty"` // duration, when the event is a span
	// Bytes carries output volume for output events.
	Bytes int64 `json:"bytes,omitempty"`
	// Mem carries a memory reading in bytes, when the emitter has one.
	Mem int64 `json:"mem,omitempty"`
	// Args carries any further numeric payload (solver nodes/pivots,
	// objective, thresholds, ...), keys sorted on encode.
	Args map[string]float64 `json:"args,omitempty"`
}

// EventLog appends schema-versioned LedgerEvents to a writer as JSON lines.
// It is safe for concurrent use and nil-safe: a nil *EventLog drops every
// event, so instrumented code paths need no enable checks. Write errors are
// sticky — the first one is kept and reported by Err/Close, and later
// appends become no-ops.
type EventLog struct {
	mu     sync.Mutex
	w      io.Writer
	closer io.Closer
	now    func() time.Time
	epoch  time.Time
	err    error
	count  int
	enc    ledgerEncoder // reused under mu: an append allocates nothing

	// Rotation state of a capped ledger (OpenEventLog): a long-lived daemon
	// holds at most two generations on disk instead of an unbounded ledger.
	path     string
	maxBytes int64
	written  int64
}

// NewEventLog starts a ledger on w with the epoch at the current time.
func NewEventLog(w io.Writer) *EventLog {
	l := &EventLog{w: w, now: time.Now}
	if c, ok := w.(io.Closer); ok {
		l.closer = c
	}
	l.epoch = l.now()
	return l
}

// OpenEventLog creates (or truncates) a ledger file at path. A maxBytes > 0
// caps it: past the cap the file becomes path+".1", replacing the previous
// generation, and a fresh file starts at path with the same epoch, so the two
// generations concatenate into one timeline. 0 leaves it uncapped.
func OpenEventLog(path string, maxBytes int64) (*EventLog, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	l := NewEventLog(f)
	l.path, l.maxBytes = path, maxBytes
	return l, nil
}

// rotateLocked performs the rename-and-reopen under l.mu; any failure is
// recorded as the sticky error, exactly like an append error.
func (l *EventLog) rotateLocked() {
	if l.closer != nil {
		if err := l.closer.Close(); err != nil {
			l.err = err
			return
		}
		l.closer = nil
	}
	if err := os.Rename(l.path, l.path+".1"); err != nil {
		l.err = err
		return
	}
	f, err := os.Create(l.path)
	if err != nil {
		l.err = err
		return
	}
	l.w = f
	l.closer = f
	l.written = 0
}

// SetClock replaces the log's clock and re-anchors the epoch, exactly like
// Tracer.SetClock; tests use it for byte-stable ledgers.
func (l *EventLog) SetClock(now func() time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.now = now
	l.epoch = now()
}

// Append stamps e (schema version and, when unset, the timestamp read from
// the log's clock) and writes it as one JSON line.
func (l *EventLog) Append(e LedgerEvent) { l.AppendAt(time.Time{}, e) }

// AppendAt is Append for a caller that has already read the clock: an unset
// timestamp is taken from at rather than from a second reading, so an event
// closing a timed region carries the very instant the region closed. A zero
// at reads the log's clock, as Append does.
//
// The line is encoded into a buffer the log owns and handed to the writer,
// newline included, in one Write before AppendAt returns: the ledger is an
// audit trail, so a crash mid-run must not lose the steps that already
// completed, and a tailing summarizer sees whole lines only.
func (l *EventLog) AppendAt(at time.Time, e LedgerEvent) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	e.Schema = LedgerSchemaVersion
	if e.TS == 0 {
		if at.IsZero() {
			at = l.now()
		}
		e.TS = float64(at.Sub(l.epoch).Nanoseconds()) / 1e3
	}
	line, err := l.enc.encodeLine(e)
	if err != nil {
		l.err = err
		return
	}
	if _, err := l.w.Write(line); err != nil {
		l.err = err
		return
	}
	l.count++
	l.written += int64(len(line))
	if l.maxBytes > 0 && l.written >= l.maxBytes {
		l.rotateLocked()
	}
}

// Event appends a span-style event of the given type.
func (l *EventLog) Event(typ, name string, step int, dur time.Duration) {
	l.Append(LedgerEvent{Type: typ, Name: name, Step: step, Dur: float64(dur.Nanoseconds()) / 1e3})
}

// Len returns the number of events appended so far.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// Err returns the first write or encode error, if any.
func (l *EventLog) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close closes the underlying file when the log owns one (every appended
// line has already reached it). Close reports the first error seen over the
// log's lifetime.
func (l *EventLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closer != nil {
		if err := l.closer.Close(); err != nil && l.err == nil {
			l.err = err
		}
		l.closer = nil
	}
	return l.err
}

// ErrSchemaTooNew marks a ledger line written under a schema this reader
// does not understand. Lenient readers skip such lines instead of failing,
// so old tooling keeps working against ledgers from newer code.
var ErrSchemaTooNew = fmt.Errorf("obs: ledger line from a newer schema than v%d", LedgerSchemaVersion)

// ParseLedgerEvent parses one JSONL ledger line. It returns ErrSchemaTooNew
// (possibly wrapped) for lines stamped with a newer schema version, and a
// plain error for malformed JSON, a missing schema or an older one.
func ParseLedgerEvent(raw []byte) (LedgerEvent, error) {
	var e LedgerEvent
	if err := json.Unmarshal(raw, &e); err != nil {
		return LedgerEvent{}, err
	}
	if e.Schema < 1 {
		return LedgerEvent{}, fmt.Errorf("obs: ledger line missing schema version")
	}
	if e.Schema < LedgerSchemaVersion {
		return LedgerEvent{}, fmt.Errorf("obs: ledger line is v%d; this reader reads v%d", e.Schema, LedgerSchemaVersion)
	}
	if e.Schema > LedgerSchemaVersion {
		return LedgerEvent{}, fmt.Errorf("%w (line is v%d)", ErrSchemaTooNew, e.Schema)
	}
	return e, nil
}

// ReadLedger parses a JSONL ledger stream. Blank lines are skipped, as are
// lines stamped with a newer schema version (forward compatibility: a new
// emitter must not break old tooling); malformed JSON is an error carrying
// the 1-based line number.
func ReadLedger(r io.Reader) ([]LedgerEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var out []LedgerEvent
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		e, err := ParseLedgerEvent([]byte(raw))
		if err != nil {
			if errors.Is(err, ErrSchemaTooNew) {
				continue
			}
			return nil, fmt.Errorf("obs: ledger line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: ledger scan: %w", err)
	}
	return out, nil
}

// ReadLedgerFile parses the ledger at path.
func ReadLedgerFile(path string) ([]LedgerEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadLedger(f)
}
