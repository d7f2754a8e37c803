package lp_test

import (
	"math"
	"testing"

	"insitu/internal/core"
	"insitu/internal/lp"
	"insitu/internal/solvercheck"
)

// TestLeanNodeSolveAllocatesNothing pins what a branch-and-bound node costs
// in memory: once a lean Solver has solved one node, re-solving a node from a
// snapshot on a compact scheduling model allocates nothing, whether the warm
// dual simplex ends on an optimum or certifies the node infeasible. The
// verdict lives in the solver's own Solution, and the basis is installed into
// the solver's own arrays.
func TestLeanNodeSolveAllocatesNothing(t *testing.T) {
	specs, res := solvercheck.SparseCampaign(7, 40)
	mp, err := core.CompactModel(specs, res, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := mp.LP
	solvers, err := lp.NewSolvers(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	root, node := solvers[0], solvers[1]
	root.Lean, node.Lean = true, true
	sol, _ := root.Solve(p.Lower, p.Upper)
	if sol.Status != lp.Optimal {
		t.Fatalf("root relaxation: %v", sol.Status)
	}
	snap := root.Basis()
	x := append([]float64(nil), sol.X...)

	// A warm-optimal child: the first fractional column branched down.
	lower, upper := append([]float64(nil), p.Lower...), append([]float64(nil), p.Upper...)
	branched := false
	for j, v := range x {
		if v == math.Floor(v) {
			continue
		}
		upper[j] = math.Floor(v)
		if got, warm := node.SolveFrom(snap, lower, upper); warm && got.Status == lp.Optimal {
			branched = true
			break
		}
		upper[j] = p.Upper[j]
	}
	if !branched {
		t.Fatal("no fractional root column branches down to a warm optimum")
	}
	pin(t, "warm-optimal", node, snap, lower, upper, lp.Optimal)

	// A warm-infeasible child: every column held at its upper bound
	// overfills each one-mode row, and no nonbasic column can repair it.
	pin(t, "warm-infeasible", node, snap, upper, upper, lp.Infeasible)
}

// pin checks that node solves (lower, upper) from snap warm to want, the same
// verdict each time, without allocating.
func pin(t *testing.T, name string, node *lp.Solver, snap *lp.Basis, lower, upper []float64, want lp.Status) {
	t.Helper()
	if sol, warm := node.SolveFrom(snap, lower, upper); !warm || sol.Status != want {
		t.Fatalf("%s node: status %v (warm %t), want a warm %v", name, sol.Status, warm, want)
	}
	stats := node.Stats
	if n := testing.AllocsPerRun(20, func() { node.SolveFrom(snap, lower, upper) }); n != 0 {
		t.Errorf("%s node: a lean SolveFrom allocates %v objects, want 0", name, n)
	}
	if node.Stats.Warm-stats.Warm != 21 || node.Stats.FallbackCold != stats.FallbackCold {
		t.Errorf("%s node: %d of 21 re-solves warm", name, node.Stats.Warm-stats.Warm)
	}
}
