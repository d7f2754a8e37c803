package milp

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"insitu/internal/lp"
	"insitu/internal/obs"
)

// recordTree solves p with a TreeRecorder installed and returns the recorder.
func recordTree(t *testing.T, p *Problem) *TreeRecorder {
	t.Helper()
	rec := NewTreeRecorder()
	rec.SetNames(p.LP.Names)
	sol, err := Solve(p, Options{Progress: rec.Observe})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	return rec
}

func TestTreeRecorderCapturesSearch(t *testing.T) {
	p := hardInstance(5, 14)
	rec := recordTree(t, p)
	nodes := rec.Nodes()
	if len(nodes) < 3 {
		t.Fatalf("recorded %d nodes, want a real search", len(nodes))
	}
	if nodes[0].Node != 1 || nodes[0].Parent != 0 || nodes[0].BranchVar != -1 || nodes[0].BranchDir != "" {
		t.Fatalf("root node = %+v", nodes[0])
	}
	seen := map[int]NodeEvent{}
	for i, n := range nodes {
		if i > 0 {
			// Parent links must point at an already streamed, branched node.
			parent, ok := seen[n.Parent]
			if !ok {
				t.Fatalf("node %d has unseen parent %d", n.Node, n.Parent)
			}
			if parent.Action != "branched" {
				t.Fatalf("node %d descends from %q parent %d", n.Node, parent.Action, n.Parent)
			}
			if n.Depth != parent.Depth+1 {
				t.Fatalf("node %d depth %d under parent depth %d", n.Node, n.Depth, parent.Depth)
			}
			if n.BranchVar < 0 || n.BranchVar >= p.LP.NumVars() || !p.Integer[n.BranchVar] {
				t.Fatalf("node %d branches on variable %d", n.Node, n.BranchVar)
			}
			if n.BranchDir != "down" && n.BranchDir != "up" {
				t.Fatalf("node %d branch dir %q", n.Node, n.BranchDir)
			}
		}
		seen[n.Node] = n
	}
	// The recorded actions are milp's prune taxonomy, node for node.
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	actions := map[string]int{}
	for _, n := range nodes {
		actions[n.Action]++
	}
	st := sol.Stats
	if len(nodes) != st.Nodes || st.BranchedNodes == 0 || actions["branched"] != st.BranchedNodes ||
		actions["pruned"] != st.PrunedBound || actions["infeasible"] != st.PrunedInfeasible || actions["integral"] != st.IntegralNodes {
		t.Fatalf("recorded actions %v over %d nodes, search stats %+v", actions, len(nodes), st)
	}
}

func TestTreeJSONRoundTrip(t *testing.T) {
	rec := recordTree(t, hardInstance(11, 12))
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTree(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec.Tree()) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, rec.Tree())
	}
}

func TestReadTreeRejectsBadInput(t *testing.T) {
	if _, err := ReadTree(strings.NewReader("{not json")); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := ReadTree(strings.NewReader(`{"schema": 99, "nodes": []}`)); err == nil {
		t.Fatal("expected schema error")
	}
}

func TestTreeDOTExport(t *testing.T) {
	p := NewProblem(&lp.Problem{})
	idx := make([]int, 6)
	coef := make([]float64, 6)
	for j := 0; j < 6; j++ {
		p.AddBinVar(float64(j%3)+1.5, fmt.Sprintf("x[A%d]", j))
		idx[j] = j
		coef[j] = 2
	}
	p.LP.AddConstraint(idx, coef, lp.LE, 5, "cap")
	rec := recordTree(t, p)
	var buf bytes.Buffer
	if err := rec.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	dot := buf.String()
	if !strings.HasPrefix(dot, "digraph bnb {") || !strings.HasSuffix(dot, "}\n") {
		t.Fatalf("not a digraph:\n%s", dot)
	}
	if !strings.Contains(dot, "n1 [label=\"n1 ") {
		t.Fatalf("missing root node:\n%s", dot)
	}
	// Every non-root node must have an inbound edge labeled with the named
	// branch variable.
	for _, n := range rec.Nodes()[1:] {
		edge := fmt.Sprintf("n%d -> n%d", n.Parent, n.Node)
		if !strings.Contains(dot, edge) {
			t.Fatalf("missing edge %s:\n%s", edge, dot)
		}
	}
	if !strings.Contains(dot, "x[A") {
		t.Fatalf("branch labels did not use variable names:\n%s", dot)
	}
}

func TestDotEscape(t *testing.T) {
	if got := dotEscape(`a"b\c`); got != `a\"b\\c` {
		t.Fatalf("dotEscape = %q", got)
	}
}

// TestTreeJSONWithoutIncumbent: a search that never finds an incumbent still
// writes its tree. Root rounding fails on x0+x1 = 1, x0-x1 <= 0,
// -x0+x1+x2 <= 0 (only x0 = x1 = 0.5 is feasible), and both children of the
// root are infeasible, so all three nodes are recorded with no incumbent.
func TestTreeJSONWithoutIncumbent(t *testing.T) {
	p := NewProblem(&lp.Problem{})
	for j := 0; j < 3; j++ {
		p.AddBinVar(1, fmt.Sprintf("x%d", j))
	}
	p.LP.AddConstraint([]int{0, 1}, []float64{1, 1}, lp.EQ, 1, "pick")
	p.LP.AddConstraint([]int{0, 1}, []float64{1, -1}, lp.LE, 0, "order")
	p.LP.AddConstraint([]int{0, 1, 2}, []float64{-1, 1, 1}, lp.LE, 0, "link")
	rec := NewTreeRecorder()
	sol, err := Solve(p, Options{Progress: rec.Observe})
	if err != nil {
		t.Fatal(err)
	}
	nodes := rec.Nodes()
	if sol.Status != Infeasible || len(nodes) != 3 {
		t.Fatalf("status %v over %d nodes, want infeasible over 3", sol.Status, len(nodes))
	}
	for _, n := range nodes {
		if n.HasInc || n.Incumbent != 0 {
			t.Fatalf("node %d carries incumbent %g (has %t)", n.Node, n.Incumbent, n.HasInc)
		}
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTree(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec.Tree()) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, rec.Tree())
	}
}

// TestLedgerRebuildsTree: the node records a flight recorder drains to a
// ledger rebuild the search tree a live recorder captured, byte for byte, at
// the default width and at Workers 4.
func TestLedgerRebuildsTree(t *testing.T) {
	for _, tc := range []struct {
		name    string
		p       *Problem
		workers int
	}{
		{"golden", goldenInstance(), 0},
		{"workers 4", hardInstance(7, 14), 4},
	} {
		fr := obs.NewFlightRecorder(0)
		live := NewTreeRecorder()
		_, err := Solve(tc.p, Options{Workers: tc.workers, Progress: func(p obs.SolveProgress) {
			fr.Record(p)
			live.Observe(p)
		}})
		if err != nil {
			t.Fatal(err)
		}
		want, got := treeJSON(t, live), treeJSON(t, ledgerTree(t, fr))
		if len(live.Nodes()) < 3 || !bytes.Equal(got, want) {
			t.Fatalf("%s: tree rebuilt from the ledger differs from the live one:\n%s\nwant\n%s", tc.name, got, want)
		}
	}
}

// ledgerTree drains fr to a ledger, reads it back, and feeds the first
// solve's records to a fresh recorder.
func ledgerTree(t *testing.T, fr *obs.FlightRecorder) *TreeRecorder {
	t.Helper()
	var buf bytes.Buffer
	l := obs.NewEventLog(&buf)
	fr.AppendLedger(l, "solve")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadLedger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	runs := obs.GroupSolveProgEvents(events)
	if len(runs) == 0 {
		t.Fatal("ledger holds no solve")
	}
	rec := NewTreeRecorder()
	for _, p := range runs[0].Records {
		rec.Observe(p)
	}
	return rec
}

func treeJSON(t *testing.T, rec *TreeRecorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
