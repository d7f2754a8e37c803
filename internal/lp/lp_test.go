package lp

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s = %g, want %g (tol %g)", what, got, want, tol)
	}
}

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if viol := p.FirstViolation(sol.X, 1e-6); viol != "" {
		t.Fatalf("solution infeasible: %s", viol)
	}
	return sol
}

func TestSimple2D(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 -> x=4, y=0, obj 12.
	p := &Problem{}
	x := p.AddVar(3, 0, Inf, "x")
	y := p.AddVar(2, 0, Inf, "y")
	p.AddConstraint([]int{x, y}, []float64{1, 1}, LE, 4, "r1")
	p.AddConstraint([]int{x, y}, []float64{1, 3}, LE, 6, "r2")
	sol := solveOK(t, p)
	approx(t, sol.Objective, 12, 1e-8, "objective")
	approx(t, sol.X[x], 4, 1e-8, "x")
	approx(t, sol.X[y], 0, 1e-8, "y")
}

func TestInteriorOptimum(t *testing.T) {
	// max x + y s.t. 2x + y <= 4, x + 2y <= 4 -> x=y=4/3, obj 8/3.
	p := &Problem{}
	x := p.AddVar(1, 0, Inf, "x")
	y := p.AddVar(1, 0, Inf, "y")
	p.AddConstraint([]int{x, y}, []float64{2, 1}, LE, 4, "")
	p.AddConstraint([]int{x, y}, []float64{1, 2}, LE, 4, "")
	sol := solveOK(t, p)
	approx(t, sol.Objective, 8.0/3, 1e-8, "objective")
	approx(t, sol.X[x], 4.0/3, 1e-8, "x")
}

func TestEqualityConstraint(t *testing.T) {
	// max x + 2y s.t. x + y = 3, y <= 2 -> y=2, x=1, obj 5.
	p := &Problem{}
	x := p.AddVar(1, 0, Inf, "x")
	y := p.AddVar(2, 0, 2, "y")
	p.AddConstraint([]int{x, y}, []float64{1, 1}, EQ, 3, "")
	sol := solveOK(t, p)
	approx(t, sol.Objective, 5, 1e-8, "objective")
	approx(t, sol.X[y], 2, 1e-8, "y")
}

func TestGEConstraint(t *testing.T) {
	// min x+y (max -x-y) s.t. x + 2y >= 4, 3x + y >= 6.
	// Optimum at intersection: x=8/5, y=6/5, cost 14/5.
	p := &Problem{}
	x := p.AddVar(-1, 0, Inf, "x")
	y := p.AddVar(-1, 0, Inf, "y")
	p.AddConstraint([]int{x, y}, []float64{1, 2}, GE, 4, "")
	p.AddConstraint([]int{x, y}, []float64{3, 1}, GE, 6, "")
	sol := solveOK(t, p)
	approx(t, sol.Objective, -14.0/5, 1e-8, "objective")
	approx(t, sol.X[x], 8.0/5, 1e-8, "x")
	approx(t, sol.X[y], 6.0/5, 1e-8, "y")
}

func TestInfeasible(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(1, 0, Inf, "x")
	p.AddConstraint([]int{x}, []float64{1}, LE, 1, "")
	p.AddConstraint([]int{x}, []float64{1}, GE, 2, "")
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(1, 0, Inf, "x")
	y := p.AddVar(0, 0, Inf, "y")
	p.AddConstraint([]int{x, y}, []float64{1, -1}, LE, 1, "")
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestLowerBoundShift(t *testing.T) {
	// max -x s.t. x >= 2 via bounds -> x=2, obj -2.
	p := &Problem{}
	x := p.AddVar(-1, 2, Inf, "x")
	sol := solveOK(t, p)
	approx(t, sol.Objective, -2, 1e-8, "objective")
	approx(t, sol.X[x], 2, 1e-8, "x")
}

func TestUpperBoundOnly(t *testing.T) {
	p := &Problem{}
	_ = p.AddVar(5, 0, 3, "x")
	_ = p.AddVar(4, 1, 2, "y")
	sol := solveOK(t, p)
	approx(t, sol.Objective, 5*3+4*2, 1e-8, "objective")
}

func TestNegativeRHS(t *testing.T) {
	// max -x - y s.t. -x - y <= -3 (i.e., x + y >= 3).
	p := &Problem{}
	x := p.AddVar(-1, 0, Inf, "x")
	y := p.AddVar(-1, 0, Inf, "y")
	p.AddConstraint([]int{x, y}, []float64{-1, -1}, LE, -3, "")
	sol := solveOK(t, p)
	approx(t, sol.Objective, -3, 1e-8, "objective")
}

func TestDegenerate(t *testing.T) {
	// Classic degenerate problem: multiple constraints active at the origin.
	p := &Problem{}
	x := p.AddVar(1, 0, Inf, "x")
	y := p.AddVar(1, 0, Inf, "y")
	z := p.AddVar(1, 0, Inf, "z")
	p.AddConstraint([]int{x, y, z}, []float64{1, 1, 1}, LE, 1, "")
	p.AddConstraint([]int{x, y}, []float64{1, 1}, LE, 1, "")
	p.AddConstraint([]int{x}, []float64{1}, LE, 1, "")
	p.AddConstraint([]int{y, z}, []float64{1, 1}, LE, 1, "")
	sol := solveOK(t, p)
	approx(t, sol.Objective, 1, 1e-8, "objective")
}

func TestRedundantEquality(t *testing.T) {
	// Duplicate equality rows create a redundant artificial in phase 1.
	p := &Problem{}
	x := p.AddVar(2, 0, Inf, "x")
	y := p.AddVar(1, 0, Inf, "y")
	p.AddConstraint([]int{x, y}, []float64{1, 1}, EQ, 2, "")
	p.AddConstraint([]int{x, y}, []float64{2, 2}, EQ, 4, "")
	sol := solveOK(t, p)
	approx(t, sol.Objective, 4, 1e-8, "objective")
	approx(t, sol.X[x], 2, 1e-8, "x")
}

func TestKnapsackRelaxation(t *testing.T) {
	// Fractional knapsack: values 60,100,120; weights 10,20,30; cap 50.
	// LP optimum = 60 + 100 + (20/30)*120 = 240.
	p := &Problem{}
	for i, v := range []float64{60, 100, 120} {
		p.AddVar(v, 0, 1, string(rune('a'+i)))
	}
	p.AddConstraint([]int{0, 1, 2}, []float64{10, 20, 30}, LE, 50, "cap")
	sol := solveOK(t, p)
	approx(t, sol.Objective, 240, 1e-8, "objective")
}

func TestValidateErrors(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(1, 0, Inf, "x")
	p.AddConstraint([]int{x}, []float64{1}, LE, 1, "")
	_ = x
	p.Lower[0] = 2
	p.Upper[0] = 1
	if _, err := Solve(p); err == nil {
		t.Fatal("expected bound-ordering error")
	}
	p.Lower[0] = math.Inf(-1)
	p.Upper[0] = Inf
	if _, err := Solve(p); err == nil {
		t.Fatal("expected free-variable error")
	}
	q := &Problem{Objective: []float64{math.NaN()}, Lower: []float64{0}, Upper: []float64{1}}
	if _, err := Solve(q); err == nil {
		t.Fatal("expected NaN objective error")
	}
}

// TestValidateRejectsMalformedRows: a Constraint built by hand, past
// AddConstraint, must be caught before a solver walks its index list, and so
// must a class count the rows cannot hold.
func TestValidateRejectsMalformedRows(t *testing.T) {
	for _, tc := range []struct {
		name string
		row  Constraint
		ok   bool
	}{
		{"ascending", Constraint{Idx: []int{0, 2}, Coef: []float64{1, 0}}, true},
		{"empty", Constraint{}, true},
		{"more indices than coefficients", Constraint{Idx: []int{0, 1}, Coef: []float64{1}}, false},
		{"more coefficients than indices", Constraint{Idx: []int{0}, Coef: []float64{1, 1}}, false},
		{"dense row without indices", Constraint{Coef: []float64{1, 1, 1}}, false},
		{"index past the last variable", Constraint{Idx: []int{0, 3}, Coef: []float64{1, 1}}, false},
		{"negative index", Constraint{Idx: []int{-1, 0}, Coef: []float64{1, 1}}, false},
		{"descending", Constraint{Idx: []int{2, 1}, Coef: []float64{1, 1}}, false},
		{"repeated index", Constraint{Idx: []int{1, 1}, Coef: []float64{1, 1}}, false},
		{"NaN coefficient", Constraint{Idx: []int{1}, Coef: []float64{math.NaN()}}, false},
		{"infinite coefficient", Constraint{Idx: []int{1}, Coef: []float64{Inf}}, false},
		{"infinite RHS", Constraint{Idx: []int{1}, Coef: []float64{1}, RHS: Inf}, false},
	} {
		p := &Problem{}
		for j := 0; j < 3; j++ {
			p.AddVar(1, 0, 1, "")
		}
		p.Constraints = []Constraint{tc.row}
		if err := p.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if _, err := Solve(p); (err == nil) != tc.ok {
			t.Errorf("%s: Solve error = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	for classes, ok := range map[int]bool{-1: false, 0: true, 1: true, 2: false} {
		p := &Problem{Classes: classes}
		p.AddVar(1, 0, 1, "")
		p.AddConstraint([]int{0}, []float64{1}, LE, 1, "")
		if err := p.Validate(); (err == nil) != ok {
			t.Errorf("%d classes over one row: Validate = %v, want ok=%v", classes, err, ok)
		}
	}
}

// TestValidateRejectsFalseDeclaration: a problem whose rows lack the shape
// its Classes declares is an error naming the row and the reason, from
// Validate and from every solve, one case per shape test. The true
// declaration validates without allocating.
func TestValidateRejectsFalseDeclaration(t *testing.T) {
	base := crashBase()
	if err := base.Validate(); err != nil {
		t.Fatalf("the base model: %v", err)
	}
	if n := testing.AllocsPerRun(20, func() { _ = base.Validate() }); n != 0 {
		t.Fatalf("Validate of a declared model allocates %v times", n)
	}
	cases := []struct {
		name string
		edit func(p *Problem)
		why  string
	}{
		{"equality class row", func(p *Problem) { p.Constraints[0].Sense = EQ }, "constraint 0 breaks the declared shape: class row is == 1"},
		{"class right-hand side of 2", func(p *Problem) { p.Constraints[0].RHS = 2 }, "constraint 0 breaks the declared shape: class row is <= 2"},
		{"class coefficient of 2", func(p *Problem) { p.Constraints[1].Coef[0] = 2 }, "constraint 1 breaks the declared shape: class row coefficient 2 on variable 3"},
		{"column in two classes", func(p *Problem) {
			p.Constraints[1].Idx, p.Constraints[1].Coef = []int{2, 3, 4, 5}, []float64{1, 1, 1, 1}
		}, "constraint 1 breaks the declared shape: variable 2 is in an earlier class row"},
		{"negative class lower bound", func(p *Problem) { p.Lower[4] = -1 }, "constraint 1 breaks the declared shape: class variable 4 has lower bound -1"},
		{"greater-equal knapsack row", func(p *Problem) { p.AddConstraint([]int{0, 3}, []float64{1, 1}, GE, 1, "cover") }, "constraint 4 breaks the declared shape: knapsack row is >= 1"},
		{"negative coefficient", func(p *Problem) { p.Constraints[2].Coef[1] = -3 }, "constraint 2 breaks the declared shape: knapsack row coefficient -3 on variable 1"},
		{"negative coefficient in the last row", func(p *Problem) { p.Constraints[3].Coef[1] = -1 }, "constraint 3 breaks the declared shape: knapsack row coefficient -1 on variable 1"},
		{"negative knapsack right-hand side", func(p *Problem) { p.Constraints[3].RHS = -1 }, "constraint 3 breaks the declared shape: knapsack row is <= -1"},
		{"zero knapsack right-hand side", func(p *Problem) { p.Constraints[3].RHS = 0 }, "constraint 3 breaks the declared shape: knapsack row is <= 0"},
	}
	for _, tc := range cases {
		p := crashBase()
		tc.edit(p)
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.why) {
			t.Errorf("%s: Validate = %v, want %q", tc.name, err, tc.why)
		}
		if _, err := Solve(p); err == nil {
			t.Errorf("%s: Solve accepted the false declaration", tc.name)
		}
		if p.Classes = 0; p.Validate() != nil {
			t.Errorf("%s: the rows are malformed undeclared too; the case tests nothing of the shape", tc.name)
		}
	}
}

// TestAddConstraintSortsAndSums: a row means what row[j] += coef[k] over the
// caller's list meant, to the bit (sums of tenths depend on their order, and
// a list this long would be reordered by an unstable sort), and the caller
// keeps its slices.
func TestAddConstraintSortsAndSums(t *testing.T) {
	p := &Problem{}
	for j := 0; j < 4; j++ {
		p.AddVar(1, 0, 1, "")
	}
	rng := rand.New(rand.NewSource(3))
	idx := make([]int, 200)
	coef := make([]float64, 200)
	dense, reversed := make([]float64, 4), make([]float64, 4)
	for k := range idx {
		idx[k] = []int{0, 1, 3}[rng.Intn(3)]
		coef[k] = 0.1 * float64(1+rng.Intn(9))
		dense[idx[k]] += coef[k]
	}
	for k := len(idx) - 1; k >= 0; k-- {
		reversed[idx[k]] += coef[k]
	}
	p.AddConstraint(idx, coef, LE, 9, "r")
	idx[0], coef[0] = 2, 99
	c := p.Constraints[0]
	if want := []int{0, 1, 3}; !reflect.DeepEqual(c.Idx, want) {
		t.Fatalf("Idx = %v, want %v", c.Idx, want)
	}
	for k, j := range c.Idx {
		if c.Coef[k] != dense[j] {
			t.Errorf("coefficient of x%d = %v, accumulated %v", j, c.Coef[k], dense[j])
		}
	}
	if reflect.DeepEqual(dense, reversed) {
		t.Fatal("the sums chosen do not depend on the order, the test proves nothing")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int{{0, 4}, {-1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddConstraint(%v) did not panic", bad)
				}
			}()
			p.AddConstraint(bad, make([]float64, len(bad)), LE, 1, "")
		}()
	}
}

func TestCloneIndependence(t *testing.T) {
	p := &Problem{Classes: 1}
	y := p.AddVar(0, 0, 1, "y")
	x := p.AddVar(1, 0, 5, "x")
	p.AddConstraint([]int{y}, []float64{1}, LE, 1, "")
	p.AddConstraint([]int{x}, []float64{1}, LE, 3, "")
	q := p.Clone()
	if q.Classes != 1 {
		t.Fatalf("clone declares %d classes, want 1", q.Classes)
	}
	q.Upper[x] = 1
	q.Constraints[1].RHS = 0.5
	q.Constraints[1].Coef[0] = 100
	sol := solveOK(t, p)
	approx(t, sol.Objective, 3, 1e-8, "original objective after clone mutation")
}

func TestEvalAndFeasible(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(2, 0, 10, "x")
	y := p.AddVar(3, 0, 10, "y")
	p.AddConstraint([]int{x, y}, []float64{1, 1}, LE, 5, "sum")
	if got := p.Eval([]float64{1, 2}); got != 8 {
		t.Fatalf("Eval = %g, want 8", got)
	}
	if !p.Feasible([]float64{2, 3}) {
		t.Fatal("point should be feasible")
	}
	if p.Feasible([]float64{4, 3}) {
		t.Fatal("point should violate the sum constraint")
	}
	if p.Feasible([]float64{-1, 0}) {
		t.Fatal("point should violate the lower bound")
	}
}

// TestRandomBoundedLPs property: for random LPs with box bounds and <=
// constraints with non-negative coefficients (always feasible at the lower
// bounds), the solver returns a feasible point whose objective is at least
// that of any random feasible candidate we construct.
func TestRandomBoundedLPs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		m := 1 + rng.Intn(4)
		p := &Problem{}
		for j := 0; j < n; j++ {
			p.AddVar(rng.Float64()*10-5, 0, 1+rng.Float64()*4, "")
		}
		for r := 0; r < m; r++ {
			idx := make([]int, n)
			coef := make([]float64, n)
			for j := 0; j < n; j++ {
				idx[j] = j
				coef[j] = rng.Float64() * 3
			}
			p.AddConstraint(idx, coef, LE, 1+rng.Float64()*10, "")
		}
		sol, err := Solve(p)
		if err != nil || sol.Status != Optimal {
			return false
		}
		if !p.Feasible(sol.X) {
			return false
		}
		// Random feasible candidate: scale down a random point until feasible.
		cand := make([]float64, n)
		for j := range cand {
			cand[j] = rng.Float64() * p.Upper[j]
		}
		for s := 0; s < 30 && p.FirstViolation(cand, 1e-9) != ""; s++ {
			for j := range cand {
				cand[j] *= 0.5
			}
		}
		if p.FirstViolation(cand, 1e-9) != "" {
			return true // could not build a candidate; nothing to compare
		}
		return sol.Objective >= p.Eval(cand)-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomLPsDualityGapFree property: resolving the same LP twice gives the
// same objective (determinism), and tightening any upper bound never
// increases the optimum.
func TestMonotoneUnderTightening(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		p := &Problem{}
		for j := 0; j < n; j++ {
			p.AddVar(rng.Float64()*5, 0, 2+rng.Float64()*3, "")
		}
		idx := make([]int, n)
		coef := make([]float64, n)
		for j := 0; j < n; j++ {
			idx[j] = j
			coef[j] = 0.5 + rng.Float64()
		}
		p.AddConstraint(idx, coef, LE, 4+rng.Float64()*5, "")
		s1, err := Solve(p)
		if err != nil || s1.Status != Optimal {
			return false
		}
		s2, err := Solve(p)
		if err != nil || s2.Status != Optimal {
			return false
		}
		if math.Abs(s1.Objective-s2.Objective) > 1e-9 {
			return false
		}
		q := p.Clone()
		j := rng.Intn(n)
		q.Upper[j] = q.Upper[j] / 2
		s3, err := Solve(q)
		if err != nil || s3.Status != Optimal {
			return false
		}
		return s3.Objective <= s1.Objective+1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSenseString(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "==" {
		t.Fatal("sense strings wrong")
	}
	if Sense(42).String() == "" {
		t.Fatal("unknown sense should still print")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible",
		Unbounded: "unbounded", IterationLimit: "iteration-limit",
	} {
		if s.String() != want {
			t.Fatalf("Status(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestLargerDense(t *testing.T) {
	// Transportation-style LP with known optimum: 3 supplies, 4 demands.
	supply := []float64{20, 30, 25}
	demand := []float64{10, 25, 15, 25}
	cost := [][]float64{
		{2, 3, 1, 4},
		{5, 4, 8, 1},
		{5, 6, 7, 8},
	}
	p := &Problem{}
	idx := make([][]int, 3)
	for i := range idx {
		idx[i] = make([]int, 4)
		for j := 0; j < 4; j++ {
			idx[i][j] = p.AddVar(-cost[i][j], 0, Inf, "")
		}
	}
	for i := 0; i < 3; i++ {
		coef := []float64{1, 1, 1, 1}
		p.AddConstraint(idx[i], coef, LE, supply[i], "")
	}
	for j := 0; j < 4; j++ {
		rows := []int{idx[0][j], idx[1][j], idx[2][j]}
		p.AddConstraint(rows, []float64{1, 1, 1}, EQ, demand[j], "")
	}
	sol := solveOK(t, p)
	// Total shipped must equal total demand.
	total := 0.0
	for _, v := range sol.X {
		total += v
	}
	approx(t, total, 75, 1e-6, "total shipment")
	if sol.Objective > 0 {
		t.Fatalf("cost must be positive, got objective %g", sol.Objective)
	}
}

func TestDualsKnapsackRelaxation(t *testing.T) {
	// Fractional knapsack: cap 50, items (60,10), (100,20), (120,30).
	// Optimal duals: cap shadow price = 120/30 = 4 (marginal item value
	// density); item bounds absorb the rest.
	p := &Problem{}
	for i, v := range []float64{60, 100, 120} {
		p.AddVar(v, 0, 1, string(rune('a'+i)))
	}
	p.AddConstraint([]int{0, 1, 2}, []float64{10, 20, 30}, LE, 50, "cap")
	sol := solveOK(t, p)
	if len(sol.Duals) != 1 {
		t.Fatalf("duals = %v", sol.Duals)
	}
	approx(t, sol.Duals[0], 4, 1e-8, "cap shadow price")
	// Dual predicts the objective change for a small RHS bump.
	q := p.Clone()
	q.Constraints[0].RHS = 51
	sol2 := solveOK(t, q)
	approx(t, sol2.Objective-sol.Objective, 4, 1e-8, "marginal value")
}

func TestDualsSlackConstraintZero(t *testing.T) {
	// A constraint with slack at the optimum has zero shadow price
	// (complementary slackness).
	p := &Problem{}
	x := p.AddVar(1, 0, 2, "x")
	p.AddConstraint([]int{x}, []float64{1}, LE, 100, "loose")
	sol := solveOK(t, p)
	if sol.Duals[0] != 0 {
		t.Fatalf("loose constraint dual = %g, want 0", sol.Duals[0])
	}
}

func TestDualsGEConstraint(t *testing.T) {
	// min x (max -x) s.t. x >= 3: dual of the GE row is d(-x*)/d(3) = -1.
	p := &Problem{}
	x := p.AddVar(-1, 0, Inf, "x")
	p.AddConstraint([]int{x}, []float64{1}, GE, 3, "floor")
	sol := solveOK(t, p)
	approx(t, sol.Duals[0], -1, 1e-8, "GE dual")
	q := p.Clone()
	q.Constraints[0].RHS = 4
	sol2 := solveOK(t, q)
	approx(t, sol2.Objective-sol.Objective, sol.Duals[0], 1e-8, "GE marginal")
}

func TestDualsEqualityNaN(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(1, 0, 5, "x")
	p.AddConstraint([]int{x}, []float64{1}, EQ, 2, "pin")
	sol := solveOK(t, p)
	if !math.IsNaN(sol.Duals[0]) {
		t.Fatalf("equality dual = %g, want NaN (not recoverable)", sol.Duals[0])
	}
}

func TestDualsNegativeRHSFlip(t *testing.T) {
	// max -x - y s.t. -x - y <= -3 (flipped internally): shadow price of
	// relaxing the RHS by +1 (allowing x+y >= 2) is +1.
	p := &Problem{}
	x := p.AddVar(-1, 0, Inf, "x")
	y := p.AddVar(-1, 0, Inf, "y")
	p.AddConstraint([]int{x, y}, []float64{-1, -1}, LE, -3, "")
	sol := solveOK(t, p)
	q := p.Clone()
	q.Constraints[0].RHS = -2
	sol2 := solveOK(t, q)
	approx(t, sol2.Objective-sol.Objective, sol.Duals[0], 1e-8, "flipped-row marginal")
}

func TestBoundFlipPath(t *testing.T) {
	// max x + 0.1y s.t. x + y <= 10, x <= 3, y <= 4. The optimum x=3, y=4
	// requires nonbasic variables to finish at their upper bounds.
	p := &Problem{}
	x := p.AddVar(1, 0, 3, "x")
	y := p.AddVar(0.1, 0, 4, "y")
	p.AddConstraint([]int{x, y}, []float64{1, 1}, LE, 10, "sum")
	sol := solveOK(t, p)
	approx(t, sol.X[x], 3, 1e-9, "x at upper")
	approx(t, sol.X[y], 4, 1e-9, "y at upper")
	approx(t, sol.Objective, 3.4, 1e-9, "objective")
}

func TestEnterFromUpperBound(t *testing.T) {
	// Crafted so a variable first flips to its upper bound and later must
	// re-enter from above: max 3x + y s.t. x + y <= 4, x - y <= 1,
	// x in [0,2], y in [0,3]. Optimum x=2, y=2, obj 8 — hit only if the
	// solver can move variables off their upper bounds.
	p := &Problem{}
	x := p.AddVar(3, 0, 2, "x")
	y := p.AddVar(1, 0, 3, "y")
	p.AddConstraint([]int{x, y}, []float64{1, 1}, LE, 4, "")
	p.AddConstraint([]int{x, y}, []float64{1, -1}, LE, 1, "")
	sol := solveOK(t, p)
	approx(t, sol.Objective, 8, 1e-8, "objective")
	approx(t, sol.X[x], 2, 1e-8, "x")
	approx(t, sol.X[y], 2, 1e-8, "y")
}

func TestManyBinariesFast(t *testing.T) {
	// The motivating case for implicit bounds: hundreds of 0-1 variables
	// must not blow the row count. Fractional knapsack over 400 binaries.
	p := &Problem{}
	n := 400
	idx := make([]int, n)
	coef := make([]float64, n)
	for j := 0; j < n; j++ {
		p.AddVar(float64(j%17)+1, 0, 1, "")
		idx[j] = j
		coef[j] = float64(j%5) + 1
	}
	p.AddConstraint(idx, coef, LE, 120, "cap")
	sol := solveOK(t, p)
	if sol.Objective <= 0 {
		t.Fatalf("objective = %g", sol.Objective)
	}
	if sol.Iters > 2000 {
		t.Fatalf("iterations = %d; bounded simplex should finish quickly", sol.Iters)
	}
}

func TestMixedBoundsWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 5, x in [0,3], y in [0,4]:
	// optimum x=3, y=2, cost 12.
	p := &Problem{}
	x := p.AddVar(-2, 0, 3, "x")
	y := p.AddVar(-3, 0, 4, "y")
	p.AddConstraint([]int{x, y}, []float64{1, 1}, GE, 5, "")
	sol := solveOK(t, p)
	approx(t, sol.Objective, -12, 1e-8, "objective")
	approx(t, sol.X[x], 3, 1e-8, "x")
	approx(t, sol.X[y], 2, 1e-8, "y")
}

func TestUpperBoundedEquality(t *testing.T) {
	// x + y = 6 with x in [0,2], y in [0,5]: feasible band requires x >= 1.
	// max 5x + y -> x=2, y=4, obj 14.
	p := &Problem{}
	x := p.AddVar(5, 0, 2, "x")
	y := p.AddVar(1, 0, 5, "y")
	p.AddConstraint([]int{x, y}, []float64{1, 1}, EQ, 6, "")
	sol := solveOK(t, p)
	approx(t, sol.Objective, 14, 1e-8, "objective")
	approx(t, sol.X[x], 2, 1e-8, "x")
}

func TestInfeasibleByBounds(t *testing.T) {
	// x <= 1, y <= 1 but x + y >= 3: infeasible through bounds alone.
	p := &Problem{}
	x := p.AddVar(1, 0, 1, "x")
	y := p.AddVar(1, 0, 1, "y")
	p.AddConstraint([]int{x, y}, []float64{1, 1}, GE, 3, "")
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

// Property: permuting the variable order never changes the optimal
// objective (solver invariance).
func TestVariablePermutationInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		obj := make([]float64, n)
		up := make([]float64, n)
		coef := make([]float64, n)
		for j := 0; j < n; j++ {
			obj[j] = rng.Float64()*8 - 2
			up[j] = 0.5 + rng.Float64()*3
			coef[j] = 0.2 + rng.Float64()*2
		}
		rhs := 1 + rng.Float64()*6

		build := func(perm []int) *Problem {
			p := &Problem{}
			idx := make([]int, n)
			cf := make([]float64, n)
			for pos, j := range perm {
				p.AddVar(obj[j], 0, up[j], "")
				idx[pos] = pos
				cf[pos] = coef[j]
			}
			p.AddConstraint(idx, cf, LE, rhs, "")
			return p
		}
		ident := make([]int, n)
		for j := range ident {
			ident[j] = j
		}
		perm := rng.Perm(n)
		s1, err := Solve(build(ident))
		if err != nil || s1.Status != Optimal {
			return false
		}
		s2, err := Solve(build(perm))
		if err != nil || s2.Status != Optimal {
			return false
		}
		return math.Abs(s1.Objective-s2.Objective) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling a constraint row (both sides) never changes the optimum.
func TestRowScalingInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		p := &Problem{}
		idx := make([]int, n)
		coef := make([]float64, n)
		for j := 0; j < n; j++ {
			p.AddVar(rng.Float64()*5, 0, 1+rng.Float64()*2, "")
			idx[j] = j
			coef[j] = 0.3 + rng.Float64()
		}
		rhs := 1 + rng.Float64()*4
		p.AddConstraint(idx, coef, LE, rhs, "")
		q := p.Clone()
		scale := 0.1 + rng.Float64()*20
		for j := range q.Constraints[0].Coef {
			q.Constraints[0].Coef[j] *= scale
		}
		q.Constraints[0].RHS *= scale
		s1, err := Solve(p)
		if err != nil || s1.Status != Optimal {
			return false
		}
		s2, err := Solve(q)
		if err != nil || s2.Status != Optimal {
			return false
		}
		return math.Abs(s1.Objective-s2.Objective) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
