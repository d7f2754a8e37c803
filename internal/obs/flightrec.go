package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
)

// SolveProgSchemaVersion versions the /solve.json document ("solveprog_v")
// and the DeterministicBytes and CanonicalBytes projections; the ledger's
// solveprog events are versioned by the line's own "v".
const SolveProgSchemaVersion = 1

// Solve progress kinds, in the order a solve emits them: exactly one start,
// zero or more incumbent and node records interleaved, exactly one end.
const (
	SolveProgStart     = "start"     // problem shape, before the root relaxation
	SolveProgNode      = "node"      // one explored node, its place in the tree
	SolveProgIncumbent = "incumbent" // the incumbent improved
	SolveProgEnd       = "end"       // terminal status, objective and bound
)

// SolveProgress is one sample of the solver flight stream: the one record
// milp.Solve emits through Options.Progress, and what the ledger's solveprog
// events, /solve.json and the gap timelines carry. All counters are
// cumulative since solve start (on the end record they equal milp.Stats), so
// a suffix of the stream still reads correct totals. TUS follows the
// solver's wall clock and is the only field excluded from the per-width
// determinism contract. It is a ledger record (RecordEvent): its JSON tags
// are the solveprog event's schema. A kind rides the ledger as its index, so
// the "wave" lines of ledgers written before node records existed read back
// as node records without their tree fields.
type SolveProgress struct {
	Seq  int     `json:"seq"`
	Kind string  `json:"kind" ledger:"start|node|incumbent|end"`
	TUS  float64 `json:"t_us"`

	// Open counts the nodes left in the queue (a node record's children
	// included); Workers is the search's wave width.
	Workers int `json:"workers"`
	Nodes   int `json:"nodes"`
	Open    int `json:"open"`

	// HasInc gates Incumbent; HasBound gates Bound (the solver's bound can
	// be ±Inf, which JSON cannot carry, so non-finite bounds are recorded as
	// absent). The absolute gap is Bound-Incumbent when both are present.
	HasInc    bool    `json:"has_inc"`
	Incumbent float64 `json:"incumbent,omitempty"`
	HasBound  bool    `json:"has_bound"`
	Bound     float64 `json:"bound,omitempty"`

	// LP effort, heuristic re-solves included, as in milp.Stats.
	Pivots        int `json:"pivots"`
	Relaxations   int `json:"relaxations"`
	WarmSolves    int `json:"warm"`
	ColdSolves    int `json:"cold"`
	FallbackColds int `json:"fallback_cold,omitempty"`

	// Revised-simplex internals: warm re-solves pruned on a dual
	// infeasibility certificate, the primal/dual pivot split, basis
	// refactorizations, and the peak eta-file length.
	WarmInfeasibles  int `json:"warm_infeasible,omitempty"`
	PrimalPivots     int `json:"primal_pivots,omitempty"`
	DualPivots       int `json:"dual_pivots,omitempty"`
	Refactorizations int `json:"refactorizations,omitempty"`
	EtaPeak          int `json:"eta_peak,omitempty"`
	// ReducedCostFixed is the number of integer columns the search has fixed
	// at their root resting bound by reduced cost.
	ReducedCostFixed int `json:"rc_fixed,omitempty"`

	// Prune-reason taxonomy over explored nodes:
	// Nodes == PrunedBound + PrunedInfeasible + IntegralNodes + BranchedNodes.
	// QueuePruned counts nodes discarded at pop time without an LP solve.
	PrunedBound      int `json:"prune_bound"`
	PrunedInfeasible int `json:"prune_infeasible"`
	IntegralNodes    int `json:"integral"`
	BranchedNodes    int `json:"branched"`
	QueuePruned      int `json:"queue_pruned"`

	Vars        int `json:"vars,omitempty"`
	IntVars     int `json:"int_vars,omitempty"`
	Constraints int `json:"constraints,omitempty"`

	// Node records only: the explored node, whose id is Nodes, and its place
	// in the search tree. Parent is the id of the node whose branching made
	// it (0 for the root) and Depth its branching depth; NodeBound is its own
	// LP bound, where Bound is the global one. Action says how it was
	// resolved: "integral", "infeasible", "branched", or "pruned" (dominated
	// by the incumbent after its relaxation solved). BranchVar is the
	// variable the branch leading here fixed (-1 at the root), BranchDir the
	// direction ("down" tightened its upper bound, "up" its lower, "" at the
	// root) and BranchBound the bound applied.
	Parent      int     `json:"parent,omitempty"`
	Depth       int     `json:"depth,omitempty"`
	NodeBound   float64 `json:"node_bound,omitempty"`
	Action      string  `json:"action,omitempty" ledger:"integral|infeasible|branched|pruned"`
	BranchVar   int     `json:"branch_var,omitempty"`
	BranchDir   string  `json:"branch_dir,omitempty" ledger:"down|up"`
	BranchBound float64 `json:"branch_bound,omitempty"`

	// Status is set on end records only: "optimal", "infeasible",
	// "unbounded", or "node-limit".
	Status string `json:"status,omitempty" ledger:"optimal|infeasible|unbounded|node-limit"`
}

// Gap returns the absolute optimality gap Bound-Incumbent and whether it is
// defined (incumbent and finite bound both present).
func (p SolveProgress) Gap() (float64, bool) {
	if !p.HasInc || !p.HasBound {
		return math.Inf(1), false
	}
	return p.Bound - p.Incumbent, true
}

// Event is the record as a solveprog ledger event under the given solve name.
func (p SolveProgress) Event(name string) LedgerEvent {
	e := RecordEvent(LedgerSolveProg, &p)
	e.Name = name
	return e
}

// SolveProgFromEvent reads a solveprog ledger event back; it reports false for
// events of other types.
func SolveProgFromEvent(e LedgerEvent) (p SolveProgress, ok bool) {
	ok = ReadRecord(e, LedgerSolveProg, &p)
	return p, ok
}

// DefaultFlightCapacity is the ring's size limit NewFlightRecorder uses for
// capacity <= 0: large enough to hold every event of the paper instances
// (hundreds of nodes) with room for big what-if sweeps.
const DefaultFlightCapacity = 8192

// FlightRecorder captures a solver progress stream into a ring buffer of
// bounded size, grown on demand: a solve that records a few dozen samples
// holds a few dozen, not the limit. It is safe for concurrent use (the
// solver records from its consume path while an HTTP handler snapshots) and
// nil-safe, so instrumented code needs no enable checks. When the ring wraps,
// the oldest records drop and Dropped counts them; because every
// SolveProgress counter is cumulative, a suffix of the stream still reads
// correct totals.
type FlightRecorder struct {
	mu      sync.Mutex
	name    string
	buf     []SolveProgress // grows by append up to limit, then wraps
	limit   int
	next    int // oldest record, once the ring is full
	total   int
	dropped int
}

// NewFlightRecorder returns a recorder holding up to capacity records
// (DefaultFlightCapacity when capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{limit: capacity}
}

// SetName labels the stream (typically the solve or instance name); it is
// carried into ledger events and page titles.
func (r *FlightRecorder) SetName(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.name = name
}

// Name returns the stream label.
func (r *FlightRecorder) Name() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.name
}

// Record appends one progress sample, evicting the oldest when full.
func (r *FlightRecorder) Record(p SolveProgress) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.buf) < r.limit {
		r.buf = append(r.buf, p)
		return
	}
	r.buf[r.next] = p
	r.next = (r.next + 1) % len(r.buf)
	r.dropped++
}

// Len returns the number of records currently held.
func (r *FlightRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total returns the number of records ever recorded (dropped included).
func (r *FlightRecorder) Total() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many records the ring evicted.
func (r *FlightRecorder) Dropped() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Snapshot returns the held records oldest-first.
func (r *FlightRecorder) Snapshot() []SolveProgress {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// next is 0 until the ring wraps, so this is buf itself before that.
	out := make([]SolveProgress, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// AppendLedger drains the held records into the ledger as solveprog events,
// one line per record, under the recorder's name (or name when non-empty).
func (r *FlightRecorder) AppendLedger(l *EventLog, name string) {
	if r == nil || l == nil {
		return
	}
	if name == "" {
		name = r.Name()
	}
	for _, p := range r.Snapshot() {
		l.Append(p.Event(name))
	}
}

// flightJSON is the /solve.json document.
type flightJSON struct {
	Schema int             `json:"solveprog_v"`
	Name   string          `json:"name,omitempty"`
	Total  int             `json:"total"`
	Events []SolveProgress `json:"events"`
}

// DeterministicBytes renders the full stream in a byte-stable text form with
// the wall-clock field (t_us) excluded: each record's ledger line without it.
// For a fixed solver width the result is identical run to run, which is what
// the solvercheck flight-determinism corpus pins.
func DeterministicBytes(recs []SolveProgress) []byte {
	b := fmt.Appendf(nil, "solveprog_v=%d stream events=%d\n", SolveProgSchemaVersion, len(recs))
	var enc ledgerEncoder
	for _, p := range recs {
		e := p.Event("")
		delete(e.Args, "t_us")
		// Only a non-finite incumbent or bound fails to encode, and no
		// solver records one; it would cut the line short on every run alike.
		b, _ = enc.appendEvent(b, e)
		b = append(b, '\n')
	}
	return b
}

// CanonicalBytes renders the width-invariant projection of the stream: the
// problem shape from the start event and the terminal status, objective,
// bound, and gap from the end event. The search explores a
// different tree at different widths (see milp.Solve), but the
// objective and terminal bound are identical at any width — so this
// projection is byte-identical at Workers=1 and Workers=8 while
// DeterministicBytes pins the full per-node stream per width.
func CanonicalBytes(recs []SolveProgress) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "solveprog_v=%d canonical\n", SolveProgSchemaVersion)
	for _, p := range recs {
		switch p.Kind {
		case SolveProgStart:
			fmt.Fprintf(&b, "start vars=%d ints=%d rows=%d\n", p.Vars, p.IntVars, p.Constraints)
		case SolveProgEnd:
			fmt.Fprintf(&b, "end status=%s has_inc=%t", p.Status, p.HasInc)
			if p.HasInc {
				fmt.Fprintf(&b, " objective=%.9g", p.Incumbent)
			}
			if p.HasBound {
				fmt.Fprintf(&b, " bound=%.9g", p.Bound)
			}
			if gap, ok := p.Gap(); ok {
				fmt.Fprintf(&b, " gap=%.9g", gap)
			}
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

// CheckTol absorbs the solver's numeric guard (warm answers are clamped to
// parent bound + 1e-6) when checking monotonicity; runmon check also holds
// every stream's final gap to it.
const CheckTol = 1e-6

// CheckSolveProg validates the invariants every well-formed flight stream
// must satisfy: sequence numbers strictly increasing, node counts
// non-decreasing, the incumbent non-decreasing (maximization), the bound
// non-increasing, and the absolute gap non-increasing, all within the
// solver's numeric tolerance. It returns the first violation, or nil. The
// flightrec-smoke CI job runs it over a real solve via runmon check.
func CheckSolveProg(recs []SolveProgress) error {
	if len(recs) == 0 {
		return fmt.Errorf("obs: empty solveprog stream")
	}
	lastSeq, lastNodes := -1, -1
	lastInc, lastBound, lastGap := math.Inf(-1), math.Inf(1), math.Inf(1)
	haveInc := false
	for i, p := range recs {
		if p.Seq <= lastSeq {
			return fmt.Errorf("obs: solveprog[%d]: seq %d not above %d", i, p.Seq, lastSeq)
		}
		lastSeq = p.Seq
		if p.Nodes < lastNodes {
			return fmt.Errorf("obs: solveprog[%d]: nodes %d fell below %d", i, p.Nodes, lastNodes)
		}
		lastNodes = p.Nodes
		if p.HasInc {
			if haveInc && p.Incumbent < lastInc-CheckTol {
				return fmt.Errorf("obs: solveprog[%d]: incumbent %g fell below %g", i, p.Incumbent, lastInc)
			}
			if p.Incumbent > lastInc {
				lastInc = p.Incumbent
			}
			haveInc = true
		}
		if p.HasBound && p.Kind != SolveProgStart {
			if p.Bound > lastBound+CheckTol {
				return fmt.Errorf("obs: solveprog[%d]: bound %g rose above %g", i, p.Bound, lastBound)
			}
			if p.Bound < lastBound {
				lastBound = p.Bound
			}
		}
		if gap, ok := p.Gap(); ok {
			if gap > lastGap+CheckTol {
				return fmt.Errorf("obs: solveprog[%d]: gap %g rose above %g", i, gap, lastGap)
			}
			if gap < lastGap {
				lastGap = gap
			}
			if gap < -CheckTol {
				return fmt.Errorf("obs: solveprog[%d]: negative gap %g", i, gap)
			}
		}
	}
	return nil
}

// FinalGap returns the end event's absolute gap. ok is false when the stream
// holds no end event or its gap is undefined (no incumbent or infinite
// bound).
func FinalGap(recs []SolveProgress) (gap float64, status string, ok bool) {
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Kind == SolveProgEnd {
			g, defined := recs[i].Gap()
			return g, recs[i].Status, defined
		}
	}
	return 0, "", false
}

// WriteGapTimeline renders the gap-closure timeline of one stream as text:
// a header with the shape and outcome, then up to maxGapRows sampled curve
// rows with a bar visualizing the remaining gap. Streams without any node
// data still render the header. It is the shared renderer behind
// schedexplain and runmon report.
func WriteGapTimeline(w io.Writer, name string, recs []SolveProgress) error {
	if len(recs) == 0 {
		return nil
	}
	head := fmt.Sprintf("solve progress %s", name)
	if name == "" {
		head = "solve progress"
	}
	var start, end *SolveProgress
	for i := range recs {
		switch recs[i].Kind {
		case SolveProgStart:
			if start == nil {
				start = &recs[i]
			}
		case SolveProgEnd:
			end = &recs[i]
		}
	}
	last := recs[len(recs)-1]
	if _, err := fmt.Fprintf(w, "%s: %d event(s), %d node(s) at width %d\n",
		head, len(recs), last.Nodes, last.Workers); err != nil {
		return err
	}
	if start != nil {
		if _, err := fmt.Fprintf(w, "  shape: %d vars (%d integer), %d constraints\n",
			start.Vars, start.IntVars, start.Constraints); err != nil {
			return err
		}
	}
	rows := gapRows(recs)
	initGap := 0.0
	if len(rows) > 0 {
		initGap, _ = rows[0].Gap()
	}
	for _, p := range sampleRows(rows) {
		gap, _ := p.Gap()
		bar := gapBar(gap, initGap)
		if _, err := fmt.Fprintf(w, "  node %6d  incumbent %-12.6g bound %-12.6g gap %-10.4g %s\n",
			p.Nodes, p.Incumbent, p.Bound, gap, bar); err != nil {
			return err
		}
	}
	if end != nil {
		line := fmt.Sprintf("  final: %s", end.Status)
		if end.HasInc {
			line += fmt.Sprintf(", objective %.6g", end.Incumbent)
		}
		if gap, ok := end.Gap(); ok {
			line += fmt.Sprintf(", gap %.4g", gap)
		}
		line += fmt.Sprintf(" (%d pivots", end.Pivots)
		if end.PrimalPivots > 0 || end.DualPivots > 0 {
			line += fmt.Sprintf(" [%d primal / %d dual, %d refactorization(s), eta peak %d]",
				end.PrimalPivots, end.DualPivots, end.Refactorizations, end.EtaPeak)
		}
		line += fmt.Sprintf(", %d warm / %d cold solves", end.WarmSolves, end.ColdSolves)
		if end.FallbackColds > 0 {
			line += fmt.Sprintf(", %d warm fallback(s)", end.FallbackColds)
		}
		if end.WarmInfeasibles > 0 {
			line += fmt.Sprintf(", %d dual-certified prune(s)", end.WarmInfeasibles)
		}
		if end.ReducedCostFixed > 0 {
			line += fmt.Sprintf(", %d column(s) fixed by reduced cost", end.ReducedCostFixed)
		}
		line += fmt.Sprintf("; pruned %d bound / %d infeasible, %d integral, %d branched)",
			end.PrunedBound, end.PrunedInfeasible, end.IntegralNodes, end.BranchedNodes)
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// maxGapRows bounds the curve rows WriteGapTimeline prints per stream.
const maxGapRows = 12

// gapRows filters a stream to the rows with a defined gap, dropping a row
// that repeats the last one kept in node count, incumbent and bound: the
// incumbent record of a node and that node's own record usually do.
func gapRows(recs []SolveProgress) []SolveProgress {
	var out []SolveProgress
	for _, p := range recs {
		if _, ok := p.Gap(); !ok || p.Kind == SolveProgStart {
			continue
		}
		if n := len(out); n > 0 && out[n-1].Nodes == p.Nodes && out[n-1].Incumbent == p.Incumbent && out[n-1].Bound == p.Bound {
			continue
		}
		out = append(out, p)
	}
	return out
}

// sampleRows keeps at most maxGapRows rows, always including the first and
// last.
func sampleRows(rows []SolveProgress) []SolveProgress {
	if len(rows) <= maxGapRows {
		return rows
	}
	out := make([]SolveProgress, 0, maxGapRows)
	for i := 0; i < maxGapRows; i++ {
		out = append(out, rows[i*(len(rows)-1)/(maxGapRows-1)])
	}
	return out
}

// gapBar renders the remaining gap as a fraction of the initial gap.
func gapBar(gap, initGap float64) string {
	const width = 20
	if initGap <= 0 || gap < 0 {
		return "|" + strings.Repeat(" ", width) + "|"
	}
	n := int(math.Round(gap / initGap * width))
	if n > width {
		n = width
	}
	return "|" + strings.Repeat("#", n) + strings.Repeat(" ", width-n) + "|"
}

// SolveProgRun is one solve's flight stream, as GroupSolveProgEvents and
// AppendSolveProg split a ledger into them.
type SolveProgRun struct {
	Name    string
	Records []SolveProgress
}

// GroupSolveProgEvents decodes and groups the solveprog events of a ledger
// by solve, preserving order. Old ledgers yield nil.
func GroupSolveProgEvents(events []LedgerEvent) []SolveProgRun {
	var runs []SolveProgRun
	for _, e := range events {
		if p, ok := SolveProgFromEvent(e); ok {
			runs = AppendSolveProg(runs, e.Name, p)
		}
	}
	return runs
}

// AppendSolveProg is the one grouping rule: it adds p, decoded from a ledger
// event named name, to the last run, opening a new run first when there is
// none yet, at a start record, or when name differs from the last run's
// non-empty name — a recorder whose ring wrapped drains without its start
// record. An unnamed run takes the first name it sees.
func AppendSolveProg(runs []SolveProgRun, name string, p SolveProgress) []SolveProgRun {
	if n := len(runs); n == 0 || p.Kind == SolveProgStart || (runs[n-1].Name != "" && runs[n-1].Name != name) {
		runs = append(runs, SolveProgRun{Name: name})
	}
	r := &runs[len(runs)-1]
	if r.Name == "" {
		r.Name = name
	}
	r.Records = append(r.Records, p)
	return runs
}

// FlightJSONHandler serves the /solve.json document from snap, which must
// return the stream name and an oldest-first snapshot.
func FlightJSONHandler(snap func() (string, []SolveProgress)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		name, recs := snap()
		if recs == nil {
			recs = []SolveProgress{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(flightJSON{Schema: SolveProgSchemaVersion, Name: name, Total: len(recs), Events: recs})
	})
}

// GapCurveHandler serves the /solve HTML page: an inline-SVG gap-closure
// curve (incumbent and bound vs nodes) plus the text timeline, no scripts.
func GapCurveHandler(snap func() (string, []SolveProgress)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		name, recs := snap()
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_ = WriteGapCurveHTML(w, name, recs)
	})
}

// WriteGapCurveHTML renders the gap-closure page: header, an SVG plotting
// incumbent (rising) and bound (falling) against explored nodes, and the
// text timeline for the numbers behind the picture.
func WriteGapCurveHTML(w io.Writer, name string, recs []SolveProgress) error {
	title := "solver flight"
	if name != "" {
		title += ": " + name
	}
	if _, err := fmt.Fprintf(w, `<!doctype html><html><head><meta charset="utf-8"><title>%s</title>
<style>body{font-family:monospace;margin:2em;background:#fafafa}svg{background:#fff;border:1px solid #ccc}pre{background:#fff;border:1px solid #ccc;padding:1em}</style>
</head><body><h1>%s</h1>
`, htmlEscape(title), htmlEscape(title)); err != nil {
		return err
	}
	if len(recs) == 0 {
		if _, err := io.WriteString(w, "<p>no solveprog events recorded yet</p></body></html>\n"); err != nil {
			return err
		}
		return nil
	}
	if err := writeGapCurveSVG(w, recs); err != nil {
		return err
	}
	if _, err := io.WriteString(w, "<pre>"); err != nil {
		return err
	}
	var text strings.Builder
	if err := WriteGapTimeline(&text, name, recs); err != nil {
		return err
	}
	if _, err := io.WriteString(w, htmlEscape(text.String())); err != nil {
		return err
	}
	_, err := io.WriteString(w, "</pre></body></html>\n")
	return err
}

func htmlEscape(s string) string {
	rep := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return rep.Replace(s)
}

// writeGapCurveSVG plots the incumbent and bound curves over explored nodes.
func writeGapCurveSVG(w io.Writer, recs []SolveProgress) error {
	rows := gapRows(recs)
	if len(rows) == 0 {
		_, err := io.WriteString(w, "<p>no bounded progress rows yet</p>\n")
		return err
	}
	const W, H, pad = 640.0, 320.0, 40.0
	minN, maxN := float64(rows[0].Nodes), float64(rows[len(rows)-1].Nodes)
	if maxN <= minN {
		maxN = minN + 1
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range rows {
		lo = math.Min(lo, p.Incumbent)
		hi = math.Max(hi, p.Bound)
	}
	if hi <= lo {
		hi = lo + 1
	}
	x := func(n int) float64 { return pad + (float64(n)-minN)/(maxN-minN)*(W-2*pad) }
	y := func(v float64) float64 { return H - pad - (v-lo)/(hi-lo)*(H-2*pad) }
	poly := func(get func(SolveProgress) float64) string {
		var b strings.Builder
		for i, p := range rows {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.1f,%.1f", x(p.Nodes), y(get(p)))
		}
		return b.String()
	}
	_, err := fmt.Fprintf(w, `<svg width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">
<polyline points="%s" fill="none" stroke="#c0392b" stroke-width="2"/>
<polyline points="%s" fill="none" stroke="#27ae60" stroke-width="2"/>
<text x="%.0f" y="16" fill="#c0392b">bound</text>
<text x="%.0f" y="32" fill="#27ae60">incumbent</text>
<text x="%.0f" y="%.0f" fill="#333">nodes %.0f..%.0f, objective %.6g..%.6g</text>
</svg>
`, W, H, W, H,
		poly(func(p SolveProgress) float64 { return p.Bound }),
		poly(func(p SolveProgress) float64 { return p.Incumbent }),
		pad, pad, pad, H-8, minN, maxN, lo, hi)
	return err
}
