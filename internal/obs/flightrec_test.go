package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"insitu/internal/obs/jsontest"
)

// progStream builds a small well-formed flight stream: start, two nodes with
// a tightening gap, an incumbent bump, and an optimal end.
func progStream() []SolveProgress {
	return []SolveProgress{
		{Seq: 0, Kind: SolveProgStart, Workers: 1, Vars: 6, IntVars: 4, Constraints: 9},
		{Seq: 1, Kind: SolveProgNode, Workers: 1, Nodes: 1, Open: 2,
			HasInc: true, Incumbent: 10, HasBound: true, Bound: 20, Pivots: 12, Relaxations: 1, ColdSolves: 1, BranchedNodes: 1,
			NodeBound: 20, Action: "branched", BranchVar: -1},
		{Seq: 2, Kind: SolveProgIncumbent, Workers: 1, Nodes: 2, Open: 1,
			HasInc: true, Incumbent: 14, HasBound: true, Bound: 18, Pivots: 20, Relaxations: 2, WarmSolves: 1, ColdSolves: 1, BranchedNodes: 2},
		{Seq: 3, Kind: SolveProgNode, Workers: 1, Nodes: 3, Open: 0,
			HasInc: true, Incumbent: 15, HasBound: true, Bound: 15, Pivots: 25, Relaxations: 3, WarmSolves: 2, ColdSolves: 1,
			PrunedBound: 1, IntegralNodes: 1, BranchedNodes: 2,
			Parent: 1, Depth: 1, NodeBound: 15, Action: "integral", BranchVar: 0, BranchDir: "up", BranchBound: 1},
		{Seq: 4, Kind: SolveProgEnd, Workers: 1, Nodes: 3,
			HasInc: true, Incumbent: 15, HasBound: true, Bound: 15, Pivots: 25, Relaxations: 3, WarmSolves: 2, ColdSolves: 1,
			PrunedBound: 1, IntegralNodes: 1, BranchedNodes: 2, ReducedCostFixed: 3, Status: "optimal"},
	}
}

func TestSolveProgGap(t *testing.T) {
	p := SolveProgress{HasInc: true, Incumbent: 10, HasBound: true, Bound: 14}
	if gap, ok := p.Gap(); !ok || gap != 4 {
		t.Fatalf("gap = %g, %t; want 4, true", gap, ok)
	}
	if _, ok := (SolveProgress{HasInc: true, Incumbent: 1}).Gap(); ok {
		t.Fatal("gap defined without a bound")
	}
	if _, ok := (SolveProgress{HasBound: true, Bound: 1}).Gap(); ok {
		t.Fatal("gap defined without an incumbent")
	}
}

func TestSolveProgLedgerRoundTrip(t *testing.T) {
	for _, p := range progStream() {
		e := p.Event("plan")
		if e.Type != LedgerSolveProg || e.Name != "plan" {
			t.Fatalf("event type/name = %q/%q", e.Type, e.Name)
		}
		got, ok := SolveProgFromEvent(e)
		if !ok {
			t.Fatalf("decode failed for kind %s", p.Kind)
		}
		// TUS travels through the args, everything else must round-trip.
		got.TUS = p.TUS
		if got != p {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, p)
		}
	}
}

// everyFieldRecords gives every field of SolveProgress a distinct non-zero
// value, one record per kind, so no field can drop out of a codec unnoticed.
func everyFieldRecords(t *testing.T) []SolveProgress {
	t.Helper()
	var recs []SolveProgress
	for k, kind := range []string{SolveProgStart, SolveProgNode, SolveProgIncumbent, SolveProgEnd} {
		var p SolveProgress
		if err := jsontest.FillRecord(&p, 100*(k+1)); err != nil {
			t.Fatal(err)
		}
		p.Kind = kind
		recs = append(recs, p)
	}
	return recs
}

// TestSolveProgEveryFieldRoundTrips: every field of every kind of record
// survives a ledger line and /solve.json whole.
func TestSolveProgEveryFieldRoundTrips(t *testing.T) {
	recs := everyFieldRecords(t)
	for _, p := range recs {
		got, ok := SolveProgFromEvent(throughLedger(t, p.Event("plan")))
		if !ok || got != p {
			t.Fatalf("%s record through the ledger:\n got %+v\nwant %+v", p.Kind, got, p)
		}
	}
	rec := httptest.NewRecorder()
	FlightJSONHandler(func() (string, []SolveProgress) { return "plan", recs }).
		ServeHTTP(rec, httptest.NewRequest("GET", "/solve.json", nil))
	var doc flightJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Events, recs) {
		t.Fatalf("/solve.json round trip:\n got %+v\nwant %+v", doc.Events, recs)
	}
}

// TestSolveProgLedgerBytes pins the solveprog ledger lines byte for byte: the
// records as the solver emits them, each field distinct, through
// AppendLedger under a fixed clock.
func TestSolveProgLedgerBytes(t *testing.T) {
	recs := everyFieldRecords(t)
	for i := range recs {
		// The solver sets the tree fields on node records, the shape on
		// start records and a status on end records only.
		if recs[i].Kind != SolveProgNode {
			p := &recs[i]
			p.Parent, p.Depth, p.NodeBound, p.Action = 0, 0, 0, ""
			p.BranchVar, p.BranchDir, p.BranchBound = 0, "", 0
		}
		if recs[i].Kind != SolveProgStart {
			recs[i].Vars, recs[i].IntVars, recs[i].Constraints = 0, 0, 0
		}
		if recs[i].Kind != SolveProgEnd {
			recs[i].Status = ""
		}
	}
	r := NewFlightRecorder(0)
	for _, p := range recs {
		r.Record(p)
	}
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	l.SetClock(func() time.Time { return time.Unix(1700000000, 0) })
	r.AppendLedger(l, "pin")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != solveProgLedgerPin {
		t.Fatalf("solveprog ledger lines moved:\n got %s\nwant %s", got, solveProgLedgerPin)
	}
}

const solveProgLedgerPin = `{"v":2,"type":"solveprog","name":"pin","ts_us":0,"args":{"bound":110.25,"branched":125,"cold":114,"constraints":129,"dual_pivots":118,"eta_peak":120,"fallback_cold":115,"has_bound":1,"has_inc":1,"incumbent":108.25,"int_vars":128,"integral":124,"kind":0,"nodes":105,"open":106,"pivots":111,"primal_pivots":117,"prune_bound":122,"prune_infeasible":123,"queue_pruned":126,"rc_fixed":121,"refactorizations":119,"relaxations":112,"seq":101,"t_us":103.25,"vars":127,"warm":113,"warm_infeasible":116,"workers":104}}
{"v":2,"type":"solveprog","name":"pin","ts_us":0,"args":{"action":3,"bound":210.25,"branch_bound":236.25,"branch_dir":1,"branch_var":234,"branched":225,"cold":214,"depth":231,"dual_pivots":218,"eta_peak":220,"fallback_cold":215,"has_bound":1,"has_inc":1,"incumbent":208.25,"integral":224,"kind":1,"node_bound":232.25,"nodes":205,"open":206,"parent":230,"pivots":211,"primal_pivots":217,"prune_bound":222,"prune_infeasible":223,"queue_pruned":226,"rc_fixed":221,"refactorizations":219,"relaxations":212,"seq":201,"t_us":203.25,"warm":213,"warm_infeasible":216,"workers":204}}
{"v":2,"type":"solveprog","name":"pin","ts_us":0,"args":{"bound":310.25,"branched":325,"cold":314,"dual_pivots":318,"eta_peak":320,"fallback_cold":315,"has_bound":1,"has_inc":1,"incumbent":308.25,"integral":324,"kind":2,"nodes":305,"open":306,"pivots":311,"primal_pivots":317,"prune_bound":322,"prune_infeasible":323,"queue_pruned":326,"rc_fixed":321,"refactorizations":319,"relaxations":312,"seq":301,"t_us":303.25,"warm":313,"warm_infeasible":316,"workers":304}}
{"v":2,"type":"solveprog","name":"pin","ts_us":0,"args":{"bound":410.25,"branched":425,"cold":414,"dual_pivots":418,"eta_peak":420,"fallback_cold":415,"has_bound":1,"has_inc":1,"incumbent":408.25,"integral":424,"kind":3,"nodes":405,"open":406,"pivots":411,"primal_pivots":417,"prune_bound":422,"prune_infeasible":423,"queue_pruned":426,"rc_fixed":421,"refactorizations":419,"relaxations":412,"seq":401,"status":3,"t_us":403.25,"warm":413,"warm_infeasible":416,"workers":404}}
`

func TestSolveProgFromEventSkips(t *testing.T) {
	if _, ok := SolveProgFromEvent(LedgerEvent{Type: LedgerSolve}); ok {
		t.Fatal("decoded a non-solveprog event")
	}
	for _, args := range []map[string]float64{{"kind": 4}, {"kind": 3, "status": 4}, {"kind": -1}} {
		if p, ok := SolveProgFromEvent(LedgerEvent{Type: LedgerSolveProg, Args: args}); ok {
			t.Fatalf("decoded %v as %+v", args, p)
		}
	}
}

func TestFlightRecorderRing(t *testing.T) {
	r := NewFlightRecorder(3)
	r.SetName("demo")
	for i := 0; i < 5; i++ {
		r.Record(SolveProgress{Seq: i, Kind: SolveProgNode, Nodes: i})
	}
	if r.Len() != 3 || r.Total() != 5 || r.Dropped() != 2 {
		t.Fatalf("len/total/dropped = %d/%d/%d; want 3/5/2", r.Len(), r.Total(), r.Dropped())
	}
	snap := r.Snapshot()
	if len(snap) != 3 || snap[0].Seq != 2 || snap[2].Seq != 4 {
		t.Fatalf("snapshot = %+v; want seqs 2..4 oldest-first", snap)
	}
}

// TestFlightRecorderGrowsOnDemand: the capacity is a limit, not a
// reservation. A default recorder costs next to nothing to build (schedd
// makes one per cache miss and the LRU keeps it), and one holding k records,
// k far below the limit, retains O(k).
func TestFlightRecorderGrowsOnDemand(t *testing.T) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	const built = 64
	recs := make([]*FlightRecorder, built)
	for i := range recs {
		recs[i] = NewFlightRecorder(0)
	}
	runtime.ReadMemStats(&ms)
	if per := (ms.TotalAlloc - before) / built; per >= 1024 {
		t.Fatalf("NewFlightRecorder(0) allocates %d bytes", per)
	}

	for _, k := range []int{1, 3, 40, 300} {
		r := NewFlightRecorder(0)
		for i := 0; i < k; i++ {
			r.Record(SolveProgress{Seq: i})
		}
		if r.Len() != k || r.Dropped() != 0 || cap(r.buf) > 2*k {
			t.Fatalf("%d records: len %d, dropped %d, retained capacity %d", k, r.Len(), r.Dropped(), cap(r.buf))
		}
		if snap := r.Snapshot(); len(snap) != k || snap[0].Seq != 0 || snap[k-1].Seq != k-1 {
			t.Fatalf("%d records: snapshot of %d", k, len(snap))
		}
	}

	// The limit still holds.
	r := NewFlightRecorder(0)
	for i := 0; i < DefaultFlightCapacity+5; i++ {
		r.Record(SolveProgress{Seq: i})
	}
	snap := r.Snapshot()
	if r.Len() != DefaultFlightCapacity || r.Dropped() != 5 || snap[0].Seq != 5 || snap[len(snap)-1].Seq != DefaultFlightCapacity+4 {
		t.Fatalf("len %d, dropped %d, snapshot %d..%d", r.Len(), r.Dropped(), snap[0].Seq, snap[len(snap)-1].Seq)
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var r *FlightRecorder
	r.Record(SolveProgress{})
	r.SetName("x")
	r.AppendLedger(nil, "")
	if r.Len() != 0 || r.Total() != 0 || r.Dropped() != 0 || r.Name() != "" || r.Snapshot() != nil {
		t.Fatal("nil recorder must be a no-op")
	}
}

func TestFlightRecorderAppendLedger(t *testing.T) {
	r := NewFlightRecorder(0)
	r.SetName("plan")
	for _, p := range progStream() {
		r.Record(p)
	}
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	r.AppendLedger(l, "")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadLedger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	runs := GroupSolveProgEvents(events)
	if len(runs) != 1 || runs[0].Name != "plan" || len(runs[0].Records) != len(progStream()) {
		t.Fatalf("grouped runs = %+v", runs)
	}
	if err := CheckSolveProg(runs[0].Records); err != nil {
		t.Fatalf("round-tripped stream fails invariants: %v", err)
	}
}

func TestCheckSolveProgViolations(t *testing.T) {
	base := progStream()
	cases := []struct {
		name   string
		mutate func([]SolveProgress) []SolveProgress
		want   string
	}{
		{"empty", func([]SolveProgress) []SolveProgress { return nil }, "empty"},
		{"seq", func(r []SolveProgress) []SolveProgress { r[2].Seq = r[1].Seq; return r }, "seq"},
		{"nodes", func(r []SolveProgress) []SolveProgress { r[3].Nodes = 0; return r }, "nodes"},
		{"incumbent", func(r []SolveProgress) []SolveProgress { r[3].Incumbent = 1; r[4].Incumbent = 1; return r }, "incumbent"},
		{"bound", func(r []SolveProgress) []SolveProgress { r[3].Bound = 99; r[4].Bound = 99; return r }, "bound"},
		{"gap", func(r []SolveProgress) []SolveProgress {
			// Incumbent above the bound: negative gap (rising incumbent and
			// falling bound keep the other monotonicity checks quiet).
			r[3].Incumbent, r[3].Bound = 16, 15
			r[4].Incumbent, r[4].Bound = 16, 15
			return r
		}, "negative gap"},
	}
	for _, tc := range cases {
		recs := tc.mutate(append([]SolveProgress(nil), base...))
		err := CheckSolveProg(recs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckSolveProg = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	if err := CheckSolveProg(base); err != nil {
		t.Fatalf("well-formed stream rejected: %v", err)
	}
}

func TestFinalGap(t *testing.T) {
	gap, status, ok := FinalGap(progStream())
	if !ok || gap != 0 || status != "optimal" {
		t.Fatalf("FinalGap = %g, %q, %t; want 0, optimal, true", gap, status, ok)
	}
	if _, _, ok := FinalGap(progStream()[:4]); ok {
		t.Fatal("FinalGap without an end event must report ok=false")
	}
}

func TestDeterministicAndCanonicalBytes(t *testing.T) {
	recs := progStream()
	det1, det2 := DeterministicBytes(recs), DeterministicBytes(recs)
	if !bytes.Equal(det1, det2) {
		t.Fatal("DeterministicBytes not stable")
	}
	// t_us must not leak into the deterministic projection.
	shifted := append([]SolveProgress(nil), recs...)
	for i := range shifted {
		shifted[i].TUS += 1e6
	}
	if !bytes.Equal(det1, DeterministicBytes(shifted)) {
		t.Fatal("DeterministicBytes depends on t_us")
	}
	// The canonical projection keeps only start shape and end outcome, so a
	// wider run with a different middle must agree.
	wide := []SolveProgress{recs[0], recs[4]}
	wide[0].Workers, wide[1].Workers = 8, 8
	wide[1].Pivots, wide[1].Nodes = 999, 7
	if !bytes.Equal(CanonicalBytes(recs), CanonicalBytes(wide)) {
		t.Fatalf("canonical projections differ:\n%s\n%s", CanonicalBytes(recs), CanonicalBytes(wide))
	}
	if bytes.Equal(det1, DeterministicBytes(wide)) {
		t.Fatal("full streams should differ between widths in this fixture")
	}
}

func TestGroupSolveProgEventsMultipleRuns(t *testing.T) {
	var events []LedgerEvent
	for _, p := range progStream() {
		events = append(events, p.Event("first"))
	}
	second := progStream()
	for _, p := range second {
		events = append(events, p.Event("second"))
	}
	runs := GroupSolveProgEvents(events)
	if len(runs) != 2 || runs[0].Name != "first" || runs[1].Name != "second" {
		t.Fatalf("runs = %+v", runs)
	}
	if len(runs[0].Records) != 5 || len(runs[1].Records) != 5 {
		t.Fatalf("record split = %d/%d", len(runs[0].Records), len(runs[1].Records))
	}
	if GroupSolveProgEvents([]LedgerEvent{{Type: LedgerStep}}) != nil {
		t.Fatal("old ledger must group to nil")
	}
}

// TestGroupSolveProgWrappedRing: a recorder whose ring wrapped drains without
// its start record, and its stream is still a run of its own.
func TestGroupSolveProgWrappedRing(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	a, b := NewFlightRecorder(0), NewFlightRecorder(4)
	a.SetName("a")
	b.SetName("b")
	for _, p := range progStream() {
		a.Record(p)
		b.Record(p)
		b.Record(p)
	}
	a.AppendLedger(l, "")
	b.AppendLedger(l, "")
	events, err := ReadLedger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range GroupSolveProgEvents(events) {
		got = append(got, fmt.Sprintf("%s:%d", r.Name, len(r.Records)))
	}
	if want := []string{"a:5", "b:4"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("runs (name:records) = %v, want %v", got, want)
	}
}

func TestWriteGapTimeline(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteGapTimeline(&buf, "plan", progStream()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"solve progress plan",
		"shape: 6 vars (4 integer), 9 constraints",
		"final: optimal, objective 15, gap 0",
		"2 warm / 1 cold solves",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := WriteGapTimeline(&buf, "", nil); err != nil || buf.Len() != 0 {
		t.Fatalf("empty stream must render nothing: %q, %v", buf.String(), err)
	}
}

func TestSampleRowsKeepsEnds(t *testing.T) {
	rows := make([]SolveProgress, 100)
	for i := range rows {
		rows[i].Nodes = i
	}
	got := sampleRows(rows)
	if len(got) != maxGapRows || got[0].Nodes != 0 || got[len(got)-1].Nodes != 99 {
		t.Fatalf("sampleRows = %d rows, first %d, last %d", len(got), got[0].Nodes, got[len(got)-1].Nodes)
	}
}

func TestFlightHandlers(t *testing.T) {
	r := NewFlightRecorder(0)
	r.SetName("plan")
	for _, p := range progStream() {
		r.Record(p)
	}
	mount := func(r *FlightRecorder) *http.ServeMux {
		snap := func() (string, []SolveProgress) { return r.Name(), r.Snapshot() }
		mux := NewServeMux(nil)
		mux.Handle("/solve.json", FlightJSONHandler(snap))
		mux.Handle("/solve", GapCurveHandler(snap))
		return mux
	}
	mux := mount(r)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/solve.json", nil))
	if rec.Code != 200 {
		t.Fatalf("/solve.json status %d", rec.Code)
	}
	var doc struct {
		Schema int             `json:"solveprog_v"`
		Name   string          `json:"name"`
		Events []SolveProgress `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != SolveProgSchemaVersion || doc.Name != "plan" || len(doc.Events) != 5 {
		t.Fatalf("/solve.json doc = %+v", doc)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/solve", nil))
	if rec.Code != 200 {
		t.Fatalf("/solve status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"<svg", "incumbent", "solve progress plan"} {
		if !strings.Contains(body, want) {
			t.Errorf("/solve page missing %q", want)
		}
	}

	// An empty recorder still serves a valid page.
	mux2 := mount(NewFlightRecorder(0))
	rec = httptest.NewRecorder()
	mux2.ServeHTTP(rec, httptest.NewRequest("GET", "/solve", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "no solveprog events") {
		t.Fatalf("empty /solve page: %d %q", rec.Code, rec.Body.String())
	}
}

// TestGapTimelineDropsRepeatedRows replays the flight stream of the rhodopsin
// golden scenario as `insitu-sched -flight` wrote it when its search took 11
// nodes: four of its incumbent records share node count, incumbent and bound
// with the node record of the node that found them, and the gap timeline
// samples its rows from the distinct ones.
func TestGapTimelineDropsRepeatedRows(t *testing.T) {
	f, err := os.Open("testdata/rhodopsin_flight.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := ReadLedger(f)
	if err != nil {
		t.Fatal(err)
	}
	runs := GroupSolveProgEvents(events)
	if len(runs) != 1 {
		t.Fatalf("%d streams in the fixture, want 1", len(runs))
	}
	type row struct {
		nodes      int
		inc, bound float64
	}
	var rows []row
	repeats := 0
	for _, p := range runs[0].Records {
		if _, ok := p.Gap(); !ok || p.Kind == SolveProgStart {
			continue
		}
		r := row{p.Nodes, p.Incumbent, p.Bound}
		if n := len(rows); n > 0 && rows[n-1] == r {
			repeats++
			continue
		}
		rows = append(rows, r)
	}
	if repeats != 4 || len(rows) != 13 {
		t.Fatalf("the fixture holds %d distinct rows and %d repeats, want 13 and 4", len(rows), repeats)
	}
	var buf bytes.Buffer
	if err := WriteGapTimeline(&buf, runs[0].Name, runs[0].Records); err != nil {
		t.Fatal(err)
	}
	var printed []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "  node ") {
			printed = append(printed, line)
		}
	}
	if len(printed) != maxGapRows {
		t.Fatalf("printed %d rows for %d distinct ones:\n%s", len(printed), len(rows), buf.String())
	}
	for i := 1; i < len(printed); i++ {
		if printed[i] == printed[i-1] {
			t.Fatalf("row %q printed twice:\n%s", printed[i], buf.String())
		}
	}
}
