// Package lp provides a sparse revised two-phase simplex solver for linear
// programs. It is the linear-algebra substrate underneath the mixed-integer
// branch-and-bound solver in package milp, which in turn solves the in-situ
// analysis scheduling models in package core.
//
// Problems are stated in the general form
//
//	maximize    c·x
//	subject to  a_r·x {<=,=,>=} b_r   for each constraint r
//	            lo_j <= x_j <= up_j   for each variable j
//
// with finite or infinite bounds. A row a_r is held as its nonzeros only
// (Constraint.Idx/Coef), so building, cloning, validating and evaluating a
// Problem cost O(nonzeros), never O(rows × columns): the scheduling models
// carry about three nonzeros per column. Internally the problem is converted to
// standard equality form and solved with a bounded-variable revised simplex
// over a compressed-sparse-column store, keeping the basis inverse in
// product form (an eta file with periodic refactorization) so each pivot
// costs O(nonzeros + factorization fill). Upper bounds are handled implicitly
// in the ratio test (nonbasic variables rest at either bound and may
// bound-flip), so the binary-heavy scheduling MILPs built on top pay no extra
// rows for their 0-1 variables. Pricing is Devex with a Bland's-rule fallback
// to guarantee termination under degeneracy; a cold solve of a problem that
// declares the multiple-choice knapsack shape (Problem.Classes, the scheduling
// models' shape) starts from the basis of Dantzig's greedy instead of the
// slacks (crash.go); warm re-solves
// under changed bounds (the Solver handle) restore feasibility with a
// bounded-variable dual simplex. Every verdict carries its evidence — an
// optimal basis (Basis.Columns) or a Farkas ray (Solver.FarkasRay) — which
// package solvercheck checks in exact arithmetic.
package lp

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// Sense is the direction of a linear constraint.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // a·x <= b
	GE              // a·x >= b
	EQ              // a·x == b
)

// String returns the conventional operator for the sense.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return fmt.Sprintf("Sense(%d)", int(s))
}

// Inf is positive infinity, usable as an upper bound.
var Inf = math.Inf(1)

// Constraint is a single linear constraint a·x {<=,=,>=} b, stored as its
// nonzeros: Coef[k] is the coefficient of variable Idx[k] and every variable
// not listed has coefficient zero. Idx is strictly ascending (AddConstraint
// establishes that; Validate rejects a hand-built row that breaks it), so a
// row can be merged against another sorted list or scattered into a dense
// vector in one pass. A stored zero is allowed and means what it says.
//
// Rows are read-only once built: solvers, presolve and the LP writer only
// read Idx and Coef, and the two places that write a row — AddConstraint's
// sort and Clone — write their own copies. A builder may therefore hand
// several rows windows of one backing array (package core does); code that
// wants to edit a row edits a Clone.
type Constraint struct {
	Idx   []int
	Coef  []float64
	Sense Sense
	RHS   float64
	Name  string
}

// Problem is a linear program in the general form documented at the package
// level. The zero value is an empty problem; use AddVar/AddConstraint to
// build it incrementally.
type Problem struct {
	// Objective holds the maximization coefficients, one per variable.
	Objective []float64
	// Lower and Upper are per-variable bounds. A missing entry defaults to
	// [0, +Inf).
	Lower []float64
	Upper []float64
	// Constraints are the linear rows.
	Constraints []Constraint
	// Names are optional variable names used in diagnostics.
	Names []string
	// Classes declares the multiple-choice knapsack shape a cold solve
	// crashes from (crash.go) and package milp's rounding repairs over: the
	// first Classes rows are "<= 1" rows with unit coefficients over
	// disjoint columns whose lower bounds are nonnegative, and every later
	// row is a "<=" row with nonnegative coefficients and a positive RHS. 0
	// declares nothing. Validate checks the declaration, and rejects a
	// problem that lacks the shape it declares; code past Validate trusts it.
	Classes int
}

// NumVars returns the number of variables in the problem.
func (p *Problem) NumVars() int { return len(p.Objective) }

// AddVar appends a variable with the given objective coefficient and bounds,
// returning its index. Existing constraints do not list the new variable, so
// its coefficient in each of them is zero.
func (p *Problem) AddVar(obj, lower, upper float64, name string) int {
	p.Objective = append(p.Objective, obj)
	p.Lower = append(p.Lower, lower)
	p.Upper = append(p.Upper, upper)
	p.Names = append(p.Names, name)
	return len(p.Objective) - 1
}

// AddConstraint appends a constraint given as (index, coefficient) pairs in
// any order. Indices must refer to existing variables; an index given more
// than once contributes the sum of its coefficients, added in the order
// given. The slices are copied.
func (p *Problem) AddConstraint(idx []int, coef []float64, sense Sense, rhs float64, name string) {
	if len(idx) != len(coef) {
		panic("lp: AddConstraint index/coefficient length mismatch")
	}
	ascending := true
	for k, j := range idx {
		if j < 0 || j >= p.NumVars() {
			panic(fmt.Sprintf("lp: AddConstraint variable index %d out of range", j))
		}
		if k > 0 && j <= idx[k-1] {
			ascending = false
		}
	}
	c := Constraint{
		Idx:   append([]int(nil), idx...),
		Coef:  append([]float64(nil), coef...),
		Sense: sense,
		RHS:   rhs,
		Name:  name,
	}
	if !ascending {
		// Stable, so duplicates are summed in the caller's order.
		sort.Stable(byIndex(c))
		w := 0
		for k, j := range c.Idx {
			if k > 0 && j == c.Idx[w-1] {
				c.Coef[w-1] += c.Coef[k]
				continue
			}
			c.Idx[w], c.Coef[w] = j, c.Coef[k]
			w++
		}
		c.Idx, c.Coef = c.Idx[:w], c.Coef[:w]
	}
	p.Constraints = append(p.Constraints, c)
}

// byIndex sorts a row's (index, coefficient) pairs by index.
type byIndex Constraint

func (c byIndex) Len() int           { return len(c.Idx) }
func (c byIndex) Less(a, b int) bool { return c.Idx[a] < c.Idx[b] }
func (c byIndex) Swap(a, b int) {
	c.Idx[a], c.Idx[b] = c.Idx[b], c.Idx[a]
	c.Coef[a], c.Coef[b] = c.Coef[b], c.Coef[a]
}

// Clone returns a deep copy of the problem, for callers that go on to edit
// bounds, rows or the objective of the copy (sensitivity probes, the
// solvercheck metamorphic transforms). The branch and bound does not clone:
// its nodes share one Problem and differ only in the bounds they pass to a
// Solver.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		Objective:   append([]float64(nil), p.Objective...),
		Lower:       append([]float64(nil), p.Lower...),
		Upper:       append([]float64(nil), p.Upper...),
		Names:       append([]string(nil), p.Names...),
		Constraints: make([]Constraint, len(p.Constraints)),
		Classes:     p.Classes,
	}
	for i, c := range p.Constraints {
		c.Idx = append([]int(nil), c.Idx...)
		c.Coef = append([]float64(nil), c.Coef...)
		q.Constraints[i] = c
	}
	return q
}

// Validate checks structural consistency: bound ordering, each row's index
// and coefficient lists of equal length with indices in range and strictly
// ascending, no NaN or infinite coefficient, and a class count within the
// rows whose rows have the shape Classes declares, in one pass over them.
func (p *Problem) Validate() error {
	n := p.NumVars()
	if len(p.Lower) != n || len(p.Upper) != n {
		return fmt.Errorf("lp: bounds length %d/%d does not match %d variables", len(p.Lower), len(p.Upper), n)
	}
	if p.Classes < 0 || p.Classes > len(p.Constraints) {
		return fmt.Errorf("lp: %d classes declared over %d rows", p.Classes, len(p.Constraints))
	}
	for j := 0; j < n; j++ {
		if math.IsNaN(p.Objective[j]) {
			return fmt.Errorf("lp: objective coefficient of variable %d is NaN", j)
		}
		if p.Lower[j] > p.Upper[j] {
			return fmt.Errorf("lp: variable %d has lower bound %g above upper bound %g", j, p.Lower[j], p.Upper[j])
		}
		if math.IsInf(p.Lower[j], -1) {
			return fmt.Errorf("lp: variable %d has -Inf lower bound (free variables are not supported)", j)
		}
	}
	marks := classMarks.Get().(*[]bool)
	defer classMarks.Put(marks)
	*marks = Resize(*marks, n)
	inClass := *marks // per column: an earlier class row is over it
	for r, c := range p.Constraints {
		if len(c.Idx) != len(c.Coef) {
			return fmt.Errorf("lp: constraint %d has %d indices for %d coefficients", r, len(c.Idx), len(c.Coef))
		}
		class, knapsack := r < p.Classes, r >= p.Classes && p.Classes > 0
		for k, j := range c.Idx {
			if j < 0 || j >= n {
				return fmt.Errorf("lp: constraint %d names variable %d of %d", r, j, n)
			}
			if k > 0 && j <= c.Idx[k-1] {
				return fmt.Errorf("lp: constraint %d indices not strictly ascending at %d, %d", r, c.Idx[k-1], j)
			}
			v := c.Coef[k]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("lp: constraint %d coefficient %d is %g", r, j, v)
			}
			switch {
			case class && v != 1:
				return shapeError(r, "class row coefficient %g on variable %d, want 1", v, j)
			case class && inClass[j]:
				return shapeError(r, "variable %d is in an earlier class row", j)
			case class && p.Lower[j] < 0:
				return shapeError(r, "class variable %d has lower bound %g, want >= 0", j, p.Lower[j])
			case class:
				inClass[j] = true
			case knapsack && v < 0:
				return shapeError(r, "knapsack row coefficient %g on variable %d, want >= 0", v, j)
			}
		}
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			return fmt.Errorf("lp: constraint %d has invalid RHS %g", r, c.RHS)
		}
		if class && (c.Sense != LE || c.RHS != 1) {
			return shapeError(r, "class row is %s %g, want <= 1", c.Sense, c.RHS)
		}
		if knapsack && (c.Sense != LE || c.RHS <= 0) {
			return shapeError(r, "knapsack row is %s %g, want <= with a positive right-hand side", c.Sense, c.RHS)
		}
	}
	return nil
}

// classMarks pools Validate's per-column marks of the class rows seen.
var classMarks = sync.Pool{New: func() any { return new([]bool) }}

// shapeError reports that row r breaks the shape Classes declares, and why.
func shapeError(r int, format string, args ...any) error {
	return fmt.Errorf("lp: constraint %d breaks the declared shape: "+format, append([]any{r}, args...)...)
}

// Status describes the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterationLimit
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status    Status
	X         []float64 // primal values, one per original variable
	Objective float64   // c·x at X (only meaningful when Status == Optimal)
	Iters     int       // simplex iterations across both phases

	// Duals holds the shadow price of each constraint (d objective /
	// d RHS) at the optimum, in the units the constraint was stated in,
	// recovered from the reduced costs of the slack/surplus columns. Entries
	// for equality constraints are NaN: they have no slack column to read
	// one from. Solver.ReducedCosts prices the variables.
	Duals []float64
}

// ErrNotSolved indicates the solver terminated without an optimal basis.
var ErrNotSolved = errors.New("lp: problem not solved to optimality")

const blandTrip = 5000 // switch to Bland's rule after this many Dantzig pivots

// Solve solves the linear program and returns its solution. The returned
// error is non-nil only for structurally invalid problems; infeasible and
// unbounded models are reported through Solution.Status.
func Solve(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cs := buildColStore(p)
	rv := newRevised(p, cs)
	sol := rv.solveCold(p.Lower, p.Upper) // not lean: nothing in it is rv's
	statePool.Put(rv)
	storePool.Put(cs)
	return sol, nil
}

// Resize returns s with length n and every entry zero, reusing its array when
// that is large enough: the one way the solver packages size a buffer they
// take from a pool.
func Resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Eval returns c·x for the problem's objective at the given point.
func (p *Problem) Eval(x []float64) float64 {
	v := 0.0
	for j, c := range p.Objective {
		v += c * x[j]
	}
	return v
}

// Feasible reports whether x satisfies all constraints and bounds of the
// problem within RowTol.
func (p *Problem) Feasible(x []float64) bool {
	return p.FirstViolation(x, RowTol) == ""
}

// FirstViolation returns a human-readable description of the first violated
// constraint or bound at x, or "" if x is feasible within tol.
func (p *Problem) FirstViolation(x []float64, tol float64) string {
	if len(x) != p.NumVars() {
		return fmt.Sprintf("point has %d entries for %d variables", len(x), p.NumVars())
	}
	for j := range x {
		if x[j] < p.Lower[j]-tol {
			return fmt.Sprintf("x[%d]=%g below lower bound %g", j, x[j], p.Lower[j])
		}
		if x[j] > p.Upper[j]+tol {
			return fmt.Sprintf("x[%d]=%g above upper bound %g", j, x[j], p.Upper[j])
		}
	}
	for r, c := range p.Constraints {
		lhs := 0.0
		for k, j := range c.Idx {
			lhs += c.Coef[k] * x[j]
		}
		ok := true
		switch c.Sense {
		case LE:
			ok = lhs <= c.RHS+tol
		case GE:
			ok = lhs >= c.RHS-tol
		case EQ:
			ok = math.Abs(lhs-c.RHS) <= tol
		}
		if !ok {
			name := c.Name
			if name == "" {
				name = fmt.Sprintf("row %d", r)
			}
			return fmt.Sprintf("constraint %s violated: %g %s %g", name, lhs, c.Sense, c.RHS)
		}
	}
	return ""
}
