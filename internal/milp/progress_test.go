package milp

import (
	"math"
	"reflect"
	"testing"

	"insitu/internal/lp"
	"insitu/internal/obs"
)

// TestEndRecordEqualsStats: every counter the end flight record shares with
// Stats (matched by field name) equals Solution.Stats, at widths 1, 2 and 8:
// on a search that branches and fixes columns by reduced cost, on one whose
// continuous column brings the rounding heuristic's solver in, and on two
// instances the root presolve tightens, one of them to infeasibility before
// any LP is solved.
func TestEndRecordEqualsStats(t *testing.T) {
	continuous := NewProblem(&lp.Problem{})
	for _, v := range []float64{2, 2, 2, 4} {
		continuous.AddBinVar(v, "")
	}
	c := continuous.AddContVar(-6, 1, "c")
	continuous.LP.AddConstraint([]int{0, 1, 2, 3, c}, []float64{5, 1, 4, 5, -4}, lp.LE, 9, "cap")

	knapsack := NewProblem(&lp.Problem{})
	addIntVar(knapsack, 1, 0, 5, "x")
	addIntVar(knapsack, 1, 0, 5, "y")
	knapsack.LP.AddConstraint([]int{0, 1}, []float64{3, 4}, lp.LE, 5, "cap")

	infeasible := NewProblem(&lp.Problem{})
	addIntVar(infeasible, 1, 0, 1, "x")
	addIntVar(infeasible, 1, 0, 1, "y")
	infeasible.LP.AddConstraint([]int{0, 1}, []float64{1, 1}, lp.GE, 3, "impossible")

	instances := map[string]*Problem{
		"fixing":     hardInstance(5, 14),
		"continuous": continuous,
		"presolve":   knapsack,
		"infeasible": infeasible,
	}
	for name, p := range instances {
		for _, w := range []int{1, 2, 8} {
			var end obs.SolveProgress
			ends := 0
			sol, err := Solve(p, Options{Workers: w, Progress: func(rec obs.SolveProgress) {
				if rec.Kind == obs.SolveProgEnd {
					end = rec
					ends++
				}
			}})
			if err != nil {
				t.Fatalf("%s workers %d: %v", name, w, err)
			}
			if ends != 1 || end.Status != sol.Status.String() {
				t.Fatalf("%s workers %d: %d end records, status %q, want one with %q", name, w, ends, end.Status, sol.Status)
			}
			got, want := reflect.ValueOf(end), reflect.ValueOf(sol.Stats)
			matched := 0
			for i := 0; i < got.NumField(); i++ {
				f := got.Type().Field(i)
				st := want.FieldByName(f.Name)
				if f.Type.Kind() != reflect.Int || !st.IsValid() {
					continue
				}
				matched++
				if got.Field(i).Int() != st.Int() {
					t.Errorf("%s workers %d: end record %s = %d, Stats %d", name, w, f.Name, got.Field(i).Int(), st.Int())
				}
			}
			// Workers, Nodes, the LP effort and simplex internals, the
			// reduced-cost fixes and the prune taxonomy.
			if matched != 18 {
				t.Fatalf("%s workers %d: %d counters shared by name, want 18", name, w, matched)
			}
		}
	}
}

// TestProofSplitMatchesStream: Stats.NodesToBest is the node count the last
// incumbent record carries (the root's rounding records 0), Stats.RootBound
// the bound of the root's node record, and Stats.Add sums the first and
// leaves the second.
func TestProofSplitMatchesStream(t *testing.T) {
	var total Stats
	toBest := 0
	for seed := int64(1); seed <= 12; seed++ {
		var lastInc, rootBound float64
		var incs int
		sol, err := Solve(hardInstance(seed, 10+int(seed)), Options{Progress: func(rec obs.SolveProgress) {
			switch {
			case rec.Kind == obs.SolveProgIncumbent:
				lastInc, incs = float64(rec.Nodes), incs+1
			case rec.Kind == obs.SolveProgNode && rec.Nodes == 1:
				rootBound = rec.Bound
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		st := sol.Stats
		if incs == 0 || float64(st.NodesToBest) != lastInc || st.RootBound != rootBound {
			t.Fatalf("seed %d: NodesToBest %d, RootBound %g; the stream's last incumbent at node %g (%d records), root bound %g", seed, st.NodesToBest, st.RootBound, lastInc, incs, rootBound)
		}
		if st.NodesToBest > st.Nodes || st.RootBound < sol.Objective-lp.BoundTol {
			t.Fatalf("seed %d: %d nodes to best of %d, root bound %g under the optimum %g", seed, st.NodesToBest, st.Nodes, st.RootBound, sol.Objective)
		}
		toBest += st.NodesToBest
		total.Add(&st)
	}
	if total.NodesToBest != toBest || total.RootBound != 0 {
		t.Fatalf("Add summed NodesToBest to %d (want %d) and RootBound to %g (want it left alone)", total.NodesToBest, toBest, total.RootBound)
	}
	infeasible := NewProblem(&lp.Problem{})
	addIntVar(infeasible, 1, 0, 1, "x")
	infeasible.LP.AddConstraint([]int{0}, []float64{1}, lp.GE, 3, "impossible")
	sol, err := Solve(infeasible, Options{})
	if err != nil || !math.IsInf(sol.Stats.RootBound, -1) || sol.Stats.NodesToBest != 0 {
		t.Fatalf("infeasible model: RootBound %g, NodesToBest %d, %v", sol.Stats.RootBound, sol.Stats.NodesToBest, err)
	}
}
