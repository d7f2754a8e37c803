package milp

import (
	"fmt"
	"strings"
	"testing"

	"insitu/internal/lp"
)

// goldenInstance is a small fixed knapsack whose branch-and-bound search
// exercises every node action. It is written out literally (no RNG) so the
// pinned event stream below cannot drift with math/rand.
func goldenInstance() *Problem {
	p := NewProblem(&lp.Problem{})
	values := []float64{4.1, 3.3, 2.9, 2.3, 1.7}
	weights := []float64{3, 2.6, 2.1, 1.4, 1.2}
	idx := make([]int, len(values))
	for j, v := range values {
		p.AddBinVar(v, fmt.Sprintf("x%d", j))
		idx[j] = j
	}
	p.LP.AddConstraint(idx, weights, lp.LE, 5.2, "cap")
	return p
}

// formatEvent renders one node the way the golden stream pins it.
func formatEvent(e NodeEvent) string {
	branch := "root"
	if e.BranchVar >= 0 {
		op := "<="
		if e.BranchDir == "up" {
			op = ">="
		}
		branch = fmt.Sprintf("x%d%s%g", e.BranchVar, op, e.BranchBound)
	}
	return fmt.Sprintf("n%d p%d d%d %s %s bound=%.4f", e.Node, e.Parent, e.Depth, branch, e.Action, e.Bound)
}

// TestObserverGoldenStream pins the exact node order, parent links, branch
// decisions, and prune reasons of the search on a fixed instance, read from
// the node records of its flight stream. Tree exports (JSON/DOT) are derived
// from these records, so any drift here is a compatibility break for
// recorded search trees; update the literal only for deliberate solver
// changes.
func TestObserverGoldenStream(t *testing.T) {
	rec := NewTreeRecorder()
	sol, err := Solve(goldenInstance(), Options{Progress: rec.Observe})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range rec.Nodes() {
		got = append(got, formatEvent(e))
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	want := []string{
		"n1 p0 d0 root branched bound=7.5833",
		"n2 p1 d1 x0<=0 branched bound=7.5346",
		"n3 p1 d1 x0>=1 branched bound=7.5333",
		"n4 p2 d2 x1>=1 integral bound=7.3000",
		"n5 p2 d2 x1<=0 pruned bound=6.9000",
		"n6 p3 d2 x4<=0 branched bound=7.5048",
		"n7 p3 d2 x4>=1 infeasible bound=7.5333",
		"n8 p6 d3 x2>=1 infeasible bound=7.5048",
		"n9 p6 d3 x2<=0 branched bound=7.4154",
		"n10 p9 d4 x1<=0 pruned bound=6.4000",
		"n11 p9 d4 x1>=1 infeasible bound=7.4154",
	}
	if len(got) != len(want) {
		t.Fatalf("stream length %d, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d:\ngot  %s\nwant %s\nfull stream:\n%s", i, got[i], want[i], strings.Join(got, "\n"))
		}
	}
}
