package core_test

import (
	"testing"

	"insitu/internal/core"
	"insitu/internal/experiments"
)

// TestSolverReportsStats pins that a real instance (Table 5's water+ions at
// the 10% threshold) surfaces nonzero branch-and-bound counters on the
// recommendation, and a terminal bound that does not undercut the objective.
func TestSolverReportsStats(t *testing.T) {
	specs := experiments.WaterIonsSpecs(16384)
	res := core.Resources{Steps: 1000, TimeThreshold: 129.35, MemThreshold: 12 << 30}
	rec, err := core.Solve(specs, res, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := rec.Stats
	if st.Nodes == 0 || st.Relaxations == 0 || st.Pivots == 0 {
		t.Fatalf("solver stats empty: %+v", st)
	}
	if st.BestBound < rec.Objective-1e-6 {
		t.Fatalf("terminal bound %g below objective %g", st.BestBound, rec.Objective)
	}
}
