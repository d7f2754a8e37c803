package lp

// The solver stack's tolerances, in one place; all are absolute. lp's own
// act on the rows as the solver holds them, each divided by its rowScale, so
// they mean the same on a row stated in bytes as on one in seconds. The
// exported ones are milp's, and act on the problem as stated.
const (
	// eps is lp's zero: a pivot-column entry, reduced cost or bound span no
	// larger counts as none, and ratios within it of each other tie.
	eps = 1e-9
	// FeasTol is how far a basic value may lie outside its bounds, and a
	// phase-1 objective below zero, before the point counts as infeasible; a
	// value this close to a bound is snapped onto it. milp's presolve allows
	// a row the same margin.
	FeasTol = 1e-7
	// dualPivTol is the minimum pivot magnitude the dual simplex accepts;
	// smaller pivots are numerically risky, and bailing out just costs one
	// cold solve.
	dualPivTol = 1e-7
	// singularTol is the minimum pivot magnitude refactorization accepts
	// before declaring the basis numerically singular.
	singularTol = 1e-10
	// etaPivTol is the minimum pivot magnitude accepted for an eta update on
	// a stale factorization; smaller pivots trigger an early refactorization
	// so the update is re-derived from fresh numbers.
	etaPivTol = 1e-8

	// IntTol is the integrality tolerance: a value within it of an integer
	// counts as integral.
	IntTol = 1e-6
	// RowTol is the row slack a snapped integral point may use and still
	// count as feasible: an integral relaxation, or a rounded candidate.
	RowTol = 1e-6
	// BoundTol is the objective margin of the search: a node stays open only
	// if its bound beats the incumbent by more, a warm node optimum may exceed
	// its parent's bound by at most this, and an integral objective needs a
	// bound of incumbent + 1 − BoundTol.
	BoundTol = 1e-6
	// ZeroTol is milp's zero in the problem's own units: an objective
	// coefficient or integer bound this close to an integer is that integer,
	// and a presolve bound must move by more to count.
	ZeroTol = 1e-9
)
