package milp

import (
	"fmt"
	"strings"

	"insitu/internal/lp"
)

// Conflict is a minimal explanation of an infeasible MILP: a subset of
// constraint rows that is infeasible on its own and becomes feasible when any
// single row is removed — the deletion-filter approximation of the IIS
// (irreducible infeasible subsystem) CPLEX computes with its conflict
// refiner. Variable bounds and integrality are treated as background and are
// never candidates for removal.
type Conflict struct {
	// Rows are the indices of the conflicting constraints in the original
	// problem, ascending.
	Rows []int
	// Names are the corresponding row names ("row <i>" when unnamed).
	Names []string
	// BoundsOnly reports that variable bounds and integrality alone are
	// infeasible: the model stays infeasible with every row removed, so
	// Rows is empty.
	BoundsOnly bool
}

// String renders the conflict on one line.
func (c *Conflict) String() string {
	if c.BoundsOnly {
		return "conflict: variable bounds/integrality alone are infeasible"
	}
	return "conflict: {" + strings.Join(c.Names, ", ") + "}"
}

// DiagnoseInfeasible explains why a MILP has no solution by a deletion
// filter: every constraint row is tentatively removed, and it is dropped
// permanently when the remainder is still infeasible. The rows that survive
// form an irreducible conflict — each one was proven necessary, because
// removing it (together with everything already dropped, a superset of the
// final conflict) made the model feasible.
//
// The input must actually be infeasible; a feasible or unbounded model is
// reported as an error. Each probe is one MILP solve under opts, so the
// filter costs O(rows) solves. A probe that hits the node limit without
// proving either way conservatively keeps its row, which preserves
// irreducibility of the proven drops but may leave the conflict larger than
// minimal; at the scheduling models' scale every probe solves to proof.
func DiagnoseInfeasible(p *Problem, opts Options) (*Conflict, error) {
	status, err := probeStatus(p, p.LP.Constraints, opts)
	if err != nil {
		return nil, err
	}
	if status != Infeasible {
		return nil, fmt.Errorf("milp: DiagnoseInfeasible on a model that solved as %v", status)
	}

	keep := make([]bool, len(p.LP.Constraints))
	for i := range keep {
		keep[i] = true
	}
	subset := func() []lp.Constraint {
		var rows []lp.Constraint
		for i, k := range keep {
			if k {
				rows = append(rows, p.LP.Constraints[i])
			}
		}
		return rows
	}
	for i := range p.LP.Constraints {
		keep[i] = false
		st, err := probeStatus(p, subset(), opts)
		if err != nil {
			return nil, err
		}
		if st != Infeasible {
			keep[i] = true // removing row i restored feasibility: it conflicts
		}
	}

	c := &Conflict{}
	for i, k := range keep {
		if !k {
			continue
		}
		c.Rows = append(c.Rows, i)
		name := p.LP.Constraints[i].Name
		if name == "" {
			name = fmt.Sprintf("row %d", i)
		}
		c.Names = append(c.Names, name)
	}
	c.BoundsOnly = len(c.Rows) == 0
	return c, nil
}

// probeStatus solves a copy of p restricted to the given constraint rows and
// returns the solve status. NodeLimit terminations count as Optimal when an
// incumbent exists (feasibility is proven), and are reported verbatim
// otherwise so the caller can stay conservative.
func probeStatus(p *Problem, rows []lp.Constraint, opts Options) (Status, error) {
	work := &Problem{
		LP: &lp.Problem{
			Objective:   p.LP.Objective,
			Lower:       p.LP.Lower,
			Upper:       p.LP.Upper,
			Names:       p.LP.Names,
			Constraints: rows,
		},
		Integer: p.Integer,
	}
	sol, err := Solve(work, opts)
	if err != nil {
		return 0, err
	}
	if sol.Status == NodeLimit && sol.HasX {
		return Optimal, nil
	}
	return sol.Status, nil
}
