package milp

import (
	"reflect"
	"strings"
	"testing"

	"insitu/internal/lp"
)

// overConstrained builds a scheduling-flavored infeasible MILP: three binary
// analyses that must all be selected (coverage row) but whose summed cost
// cannot fit the budget row, plus two satisfiable decoy rows that a correct
// deletion filter must discard.
func overConstrained() *Problem {
	p := NewProblem(&lp.Problem{})
	a := p.AddBinVar(1, "a")
	b := p.AddBinVar(1, "b")
	c := p.AddBinVar(1, "c")
	p.LP.AddConstraint([]int{a, b, c}, []float64{1, 1, 1}, lp.GE, 3, "coverage")
	p.LP.AddConstraint([]int{a, b, c}, []float64{5, 5, 5}, lp.LE, 10, "time-budget")
	p.LP.AddConstraint([]int{a}, []float64{1}, lp.LE, 1, "decoy-cap")
	p.LP.AddConstraint([]int{b, c}, []float64{1, 1}, lp.GE, 0, "decoy-floor")
	return p
}

func TestDiagnoseInfeasibleMinimalConflict(t *testing.T) {
	p := overConstrained()
	conflict, err := DiagnoseInfeasible(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if conflict.BoundsOnly {
		t.Fatal("conflict reported as bounds-only")
	}
	if !reflect.DeepEqual(conflict.Names, []string{"coverage", "time-budget"}) {
		t.Fatalf("conflict = %v", conflict.Names)
	}

	// Verify minimality independently: the conflict rows alone must be
	// infeasible, and dropping any single conflict row must restore
	// feasibility.
	inConflict := map[int]bool{}
	for _, r := range conflict.Rows {
		inConflict[r] = true
	}
	solveWith := func(skip int) Status {
		var rows []lp.Constraint
		for i, c := range p.LP.Constraints {
			if inConflict[i] && i != skip {
				rows = append(rows, c)
			}
		}
		st, err := probeStatus(p, rows, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if st := solveWith(-1); st != Infeasible {
		t.Fatalf("conflict rows alone solve as %v", st)
	}
	for _, r := range conflict.Rows {
		if st := solveWith(r); st == Infeasible {
			t.Fatalf("conflict not minimal: still infeasible without row %d (%s)",
				r, p.LP.Constraints[r].Name)
		}
	}
	if got := conflict.String(); !strings.Contains(got, "coverage") || !strings.Contains(got, "time-budget") {
		t.Fatalf("String() = %q", got)
	}
}

func TestDiagnoseInfeasibleBoundsOnly(t *testing.T) {
	// 0.3 <= x <= 0.7 with x integer: no row is removable, the integrality
	// gap itself is the conflict.
	p := NewProblem(&lp.Problem{})
	addIntVar(p, 1, 0.3, 0.7, "x")
	p.LP.AddConstraint([]int{0}, []float64{1}, lp.LE, 5, "loose")
	conflict, err := DiagnoseInfeasible(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !conflict.BoundsOnly || len(conflict.Rows) != 0 {
		t.Fatalf("conflict = %+v, want bounds-only", conflict)
	}
	if !strings.Contains(conflict.String(), "bounds") {
		t.Fatalf("String() = %q", conflict.String())
	}
}

func TestDiagnoseInfeasibleUnnamedRows(t *testing.T) {
	p := NewProblem(&lp.Problem{})
	x := p.AddBinVar(1, "x")
	p.LP.AddConstraint([]int{x}, []float64{1}, lp.GE, 2, "")
	conflict, err := DiagnoseInfeasible(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(conflict.Names, []string{"row 0"}) {
		t.Fatalf("conflict names = %v", conflict.Names)
	}
}

func TestDiagnoseInfeasibleRejectsFeasible(t *testing.T) {
	p := NewProblem(&lp.Problem{})
	p.AddBinVar(1, "x")
	if _, err := DiagnoseInfeasible(p, Options{}); err == nil {
		t.Fatal("expected error on a feasible model")
	}
}
