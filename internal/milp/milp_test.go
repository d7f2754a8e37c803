package milp

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"insitu/internal/lp"
	"insitu/internal/obs"
)

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if viol := p.LP.FirstViolation(sol.X, 1e-6); viol != "" {
		t.Fatalf("solution infeasible: %s", viol)
	}
	for j, isInt := range p.Integer {
		if isInt && math.Abs(sol.X[j]-math.Round(sol.X[j])) > 1e-6 {
			t.Fatalf("variable %d = %g not integral", j, sol.X[j])
		}
	}
	checkBound(t, sol)
	return sol
}

// checkBound asserts the terminal-bound invariant: the best remaining bound
// can never sit below the incumbent objective.
func checkBound(t *testing.T, sol *Solution) {
	t.Helper()
	const tol = 1e-6
	if sol.HasX && sol.Stats.BestBound < sol.Objective-tol {
		t.Fatalf("BestBound = %g below Objective = %g", sol.Stats.BestBound, sol.Objective)
	}
}

func TestKnapsack(t *testing.T) {
	// 0-1 knapsack: values 60,100,120; weights 10,20,30; cap 50 -> take items
	// 2 and 3 for value 220 (LP bound is 240).
	p := NewProblem(&lp.Problem{})
	a := p.AddBinVar(60, "a")
	b := p.AddBinVar(100, "b")
	c := p.AddBinVar(120, "c")
	p.LP.AddConstraint([]int{a, b, c}, []float64{10, 20, 30}, lp.LE, 50, "cap")
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-220) > 1e-6 {
		t.Fatalf("objective = %g, want 220", sol.Objective)
	}
	if sol.X[a] != 0 || sol.X[b] != 1 || sol.X[c] != 1 {
		t.Fatalf("selection = %v, want [0 1 1]", sol.X)
	}
}

func TestIntegerRounding(t *testing.T) {
	// max x s.t. 2x <= 7, x integer -> x = 3 (LP gives 3.5).
	p := NewProblem(&lp.Problem{})
	x := addIntVar(p, 1, 0, 10, "x")
	p.LP.AddConstraint([]int{x}, []float64{2}, lp.LE, 7, "")
	sol := solveOK(t, p)
	if sol.X[x] != 3 {
		t.Fatalf("x = %g, want 3", sol.X[x])
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// max 3x + 2y, x integer, y continuous; x + y <= 4.5; x <= 3.2.
	// Optimum: x=3, y=1.5, obj 12.
	p := NewProblem(&lp.Problem{})
	x := addIntVar(p, 3, 0, 3.2, "x")
	y := p.AddContVar(2, lp.Inf, "y")
	p.LP.AddConstraint([]int{x, y}, []float64{1, 1}, lp.LE, 4.5, "")
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-12) > 1e-6 {
		t.Fatalf("objective = %g, want 12", sol.Objective)
	}
	if sol.X[x] != 3 || math.Abs(sol.X[y]-1.5) > 1e-6 {
		t.Fatalf("x=%g y=%g, want 3, 1.5", sol.X[x], sol.X[y])
	}
}

func TestInfeasibleMILP(t *testing.T) {
	p := NewProblem(&lp.Problem{})
	x := p.AddBinVar(1, "x")
	p.LP.AddConstraint([]int{x}, []float64{1}, lp.GE, 0.4, "")
	p.LP.AddConstraint([]int{x}, []float64{1}, lp.LE, 0.6, "")
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestInfiniteIntegerBoundRejected(t *testing.T) {
	p := NewProblem(&lp.Problem{})
	addIntVar(p, 1, 0, lp.Inf, "x")
	if _, err := Solve(p, Options{}); err == nil {
		t.Fatal("expected error for unbounded integer variable")
	}
}

// TestSolveRejectsMalformedModel: a model Validate refuses is an error from
// Solve at any width, before anything indexes it.
func TestSolveRejectsMalformedModel(t *testing.T) {
	cases := []struct {
		name string
		edit func(p *Problem)
		why  string
	}{
		{"index out of range", func(p *Problem) {
			p.LP.Constraints = append(p.LP.Constraints, lp.Constraint{Idx: []int{5}, Coef: []float64{1}, RHS: 1})
		}, "constraint 1 names variable 5 of 1"},
		{"short lower bounds", func(p *Problem) { p.LP.Lower = p.LP.Lower[:0] }, "bounds length 0/1"},
		{"short upper bounds", func(p *Problem) { p.LP.Upper = nil }, "bounds length 1/0"},
		{"false declaration", func(p *Problem) { p.LP.Constraints[0].RHS = 2 }, "class row is <= 2"},
	}
	for _, tc := range cases {
		for _, w := range widths {
			p := NewProblem(&lp.Problem{Classes: 1})
			p.AddBinVar(1, "x")
			p.LP.AddConstraint([]int{0}, []float64{1}, lp.LE, 1, "")
			tc.edit(p)
			if _, err := Solve(p, Options{Workers: w}); err == nil || !strings.Contains(err.Error(), tc.why) {
				t.Errorf("%s, workers=%d: Solve error %v, want %q", tc.name, w, err, tc.why)
			}
		}
	}
}

func TestEqualityMILP(t *testing.T) {
	// x + y = 5, x,y in {0..5} integer, max 2x + 3y -> x=0, y=5, obj 15.
	p := NewProblem(&lp.Problem{})
	x := addIntVar(p, 2, 0, 5, "x")
	y := addIntVar(p, 3, 0, 5, "y")
	p.LP.AddConstraint([]int{x, y}, []float64{1, 1}, lp.EQ, 5, "")
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-15) > 1e-6 {
		t.Fatalf("objective = %g, want 15", sol.Objective)
	}
}

func TestAgainstBruteForceFixed(t *testing.T) {
	// A handful of structured instances validated against exhaustive search.
	cases := []func() *Problem{
		func() *Problem { // set packing
			p := NewProblem(&lp.Problem{})
			for i, v := range []float64{5, 4, 3} {
				p.AddBinVar(v, string(rune('a'+i)))
			}
			p.LP.AddConstraint([]int{0, 1}, []float64{1, 1}, lp.LE, 1, "")
			p.LP.AddConstraint([]int{1, 2}, []float64{1, 1}, lp.LE, 1, "")
			return p
		},
		func() *Problem { // covering with minimization
			p := NewProblem(&lp.Problem{})
			for i, v := range []float64{-2, -3, -4} {
				p.AddBinVar(v, string(rune('a'+i)))
			}
			p.LP.AddConstraint([]int{0, 1}, []float64{1, 1}, lp.GE, 1, "")
			p.LP.AddConstraint([]int{0, 2}, []float64{1, 1}, lp.GE, 1, "")
			return p
		},
		func() *Problem { // general integers
			p := NewProblem(&lp.Problem{})
			x := addIntVar(p, 7, 0, 4, "x")
			y := addIntVar(p, 2, 0, 4, "y")
			p.LP.AddConstraint([]int{x, y}, []float64{3, 1}, lp.LE, 10, "")
			return p
		},
	}
	for i, mk := range cases {
		p := mk()
		got := solveOK(t, p)
		want, err := BruteForce(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Objective-want.Objective) > 1e-6 {
			t.Fatalf("case %d: B&B objective %g != brute force %g", i, got.Objective, want.Objective)
		}
	}
}

// TestRandomAgainstBruteForce property: on random small binary knapsack-like
// problems, branch and bound matches exhaustive enumeration.
func TestRandomAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		m := 1 + rng.Intn(3)
		p := NewProblem(&lp.Problem{})
		for j := 0; j < n; j++ {
			p.AddBinVar(rng.Float64()*10-2, "")
		}
		idx := make([]int, n)
		for j := range idx {
			idx[j] = j
		}
		for r := 0; r < m; r++ {
			coef := make([]float64, n)
			for j := range coef {
				coef[j] = rng.Float64() * 4
			}
			p.LP.AddConstraint(idx, coef, lp.LE, 2+rng.Float64()*6, "")
		}
		got, err := Solve(p, Options{})
		if err != nil || got.Status != Optimal {
			return false
		}
		want, err := BruteForce(p)
		if err != nil || want.Status != Optimal {
			return false
		}
		return math.Abs(got.Objective-want.Objective) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomGeneralIntegers property: random bounded general-integer programs
// match brute force.
func TestRandomGeneralIntegers(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		p := NewProblem(&lp.Problem{})
		for j := 0; j < n; j++ {
			addIntVar(p, rng.Float64()*6-1, 0, float64(1+rng.Intn(4)), "")
		}
		idx := make([]int, n)
		coef := make([]float64, n)
		for j := range idx {
			idx[j] = j
			coef[j] = 0.3 + rng.Float64()*2
		}
		p.LP.AddConstraint(idx, coef, lp.LE, 2+rng.Float64()*8, "")
		got, err := Solve(p, Options{})
		if err != nil || got.Status != Optimal {
			return false
		}
		want, err := BruteForce(p)
		if err != nil {
			return false
		}
		return math.Abs(got.Objective-want.Objective) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeLimit(t *testing.T) {
	// A problem needing several nodes with MaxNodes=1 must report NodeLimit.
	rng := rand.New(rand.NewSource(7))
	p := NewProblem(&lp.Problem{})
	n := 12
	idx := make([]int, n)
	coef := make([]float64, n)
	for j := 0; j < n; j++ {
		p.AddBinVar(1+rng.Float64(), "")
		idx[j] = j
		coef[j] = 1 + rng.Float64()
	}
	p.LP.AddConstraint(idx, coef, lp.LE, float64(n)/3, "")
	sol, err := Solve(p, Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != NodeLimit && sol.Status != Optimal {
		t.Fatalf("status = %v, want node-limit (or optimal if root solved it)", sol.Status)
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible",
		Unbounded: "unbounded", NodeLimit: "node-limit",
	} {
		if s.String() != want {
			t.Fatalf("Status(%d) = %q, want %q", s, s.String(), want)
		}
	}
}

func TestUnboundedMILP(t *testing.T) {
	p := NewProblem(&lp.Problem{})
	p.AddContVar(1, lp.Inf, "x")
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestWeightedObjectiveTieBreak(t *testing.T) {
	// Two symmetric items, capacity for one: objective must pick either, and
	// the objective value must be exact.
	p := NewProblem(&lp.Problem{})
	a := p.AddBinVar(5, "a")
	b := p.AddBinVar(5, "b")
	p.LP.AddConstraint([]int{a, b}, []float64{1, 1}, lp.LE, 1, "")
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-5) > 1e-9 {
		t.Fatalf("objective = %g, want 5", sol.Objective)
	}
}

// addIntVar appends an integer variable with the given bounds; programs only
// ever need AddBinVar's.
func addIntVar(p *Problem, obj, lower, upper float64, name string) int {
	j := p.LP.AddVar(obj, lower, upper, name)
	p.Integer = append(p.Integer, true)
	return j
}

func TestNodeLimitKeepsIncumbent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewProblem(&lp.Problem{})
	n := 16
	idx := make([]int, n)
	coef := make([]float64, n)
	for j := 0; j < n; j++ {
		p.AddBinVar(1+rng.Float64(), "")
		idx[j] = j
		coef[j] = 1 + rng.Float64()
	}
	p.LP.AddConstraint(idx, coef, lp.LE, float64(n)/3, "")
	sol, err := Solve(p, Options{MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, sol)
	if sol.HasX {
		if viol := p.LP.FirstViolation(sol.X, 1e-6); viol != "" {
			t.Fatalf("node-limited incumbent infeasible: %s", viol)
		}
		for j := range sol.X {
			if math.Abs(sol.X[j]-math.Round(sol.X[j])) > 1e-6 {
				t.Fatalf("node-limited incumbent fractional at %d", j)
			}
		}
	}
}

// hardInstance builds a knapsack that needs real branching, so the search
// statistics have something to count.
func hardInstance(seed int64, n int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := NewProblem(&lp.Problem{})
	idx := make([]int, n)
	coef := make([]float64, n)
	for j := 0; j < n; j++ {
		p.AddBinVar(1+rng.Float64()*4, "")
		idx[j] = j
		coef[j] = 1 + rng.Float64()*3
	}
	p.LP.AddConstraint(idx, coef, lp.LE, float64(n)/2, "cap")
	return p
}

// incumbentRecords solves p and returns the incumbent records of its flight
// stream: the search's improvement trajectory, in discovery order.
func incumbentRecords(t *testing.T, p *Problem, opts Options) (*Solution, []obs.SolveProgress) {
	t.Helper()
	var incs []obs.SolveProgress
	opts.Progress = func(rec obs.SolveProgress) {
		if rec.Kind == obs.SolveProgIncumbent {
			incs = append(incs, rec)
		}
	}
	sol, err := Solve(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sol, incs
}

func TestSolveStats(t *testing.T) {
	p := hardInstance(5, 14)
	sol := solveOK(t, p)
	st := sol.Stats
	if st.Nodes == 0 || st.Relaxations == 0 || st.Pivots == 0 {
		t.Fatalf("empty stats: %+v", st)
	}
	// The heuristic re-solves are charged too, so relaxations can exceed
	// nodes but never undercut them.
	if st.Relaxations < st.Nodes {
		t.Fatalf("relaxations %d < nodes %d", st.Relaxations, st.Nodes)
	}
	_, incs := incumbentRecords(t, p, Options{})
	if len(incs) == 0 {
		t.Fatal("no incumbent trajectory recorded")
	}
	// Trajectory must strictly improve and end at the returned objective,
	// with each bound at or above its incumbent.
	prev := math.Inf(-1)
	for i, inc := range incs {
		if inc.Incumbent <= prev {
			t.Fatalf("incumbent %d objective %g does not improve on %g", i, inc.Incumbent, prev)
		}
		if !inc.HasBound || inc.Bound < inc.Incumbent-1e-6 {
			t.Fatalf("incumbent %d bound %g (has %t) below objective %g", i, inc.Bound, inc.HasBound, inc.Incumbent)
		}
		prev = inc.Incumbent
	}
	if last := incs[len(incs)-1]; math.Abs(last.Incumbent-sol.Objective) > 1e-9 {
		t.Fatalf("trajectory ends at %g, solution objective %g", last.Incumbent, sol.Objective)
	}
}

// TestRoundingNeedsNoLPOnPureIntegerModels checks the two rounding paths
// against each other where both apply: on a model with no continuous
// variable, checking the rounded point directly must find exactly what
// fixing every integer and solving the (empty) continuous remainder finds.
func TestRoundingNeedsNoLPOnPureIntegerModels(t *testing.T) {
	rng := rand.New(rand.NewSource(2015))
	found := 0
	for trial := 0; trial < 200; trial++ {
		p := randParallelMILP(rng)
		if trial%2 == 1 {
			// General integers, some with fractional bounds.
			for j := range p.LP.Upper {
				p.LP.Lower[j] = float64(rng.Intn(3)) / 2
				p.LP.Upper[j] = p.LP.Lower[j] + float64(rng.Intn(7))/2
			}
		}
		relax, err := lp.Solve(p.LP)
		if err != nil {
			t.Fatal(err)
		}
		if relax.Status != lp.Optimal {
			continue
		}
		if hasContinuous(p) {
			t.Fatalf("trial %d: pure-integer model would get a heuristic solver", trial)
		}
		solver, err := lp.NewSolver(p.LP)
		if err != nil {
			t.Fatal(err)
		}
		var direct, backed heurCtx
		direct.init(p, nil)
		backed.init(p, solver)
		var st, stLP Stats
		integral := mostFractional(p, relax.X, 1e-6) < 0
		x, ok := direct.round(p, relax.X, integral, &st)
		xLP, okLP := backed.round(p, relax.X, integral, &stLP)
		if ok != okLP || !reflect.DeepEqual(x, xLP) {
			t.Fatalf("trial %d: direct rounding gave %v (%t), LP-backed %v (%t)", trial, x, ok, xLP, okLP)
		}
		if st.Relaxations != 0 || st.Pivots != 0 {
			t.Fatalf("trial %d: direct rounding charged %d relaxations, %d pivots", trial, st.Relaxations, st.Pivots)
		}
		if ok {
			found++
			if mostFractional(p, x, 0) >= 0 || !p.LP.Feasible(x) {
				t.Fatalf("trial %d: rounded point %v is not an integer-feasible point", trial, x)
			}
		}
	}
	if found < 20 {
		t.Fatalf("only %d of 200 instances rounded to a feasible point; the comparison is near-vacuous", found)
	}
}

func TestSolveTimeInjectedClock(t *testing.T) {
	// A clock advancing 1ms per reading makes SolveTime deterministic and
	// nonzero regardless of host speed.
	fake := time.Unix(0, 0)
	now := func() time.Time {
		fake = fake.Add(time.Millisecond)
		return fake
	}
	sol, err := Solve(hardInstance(5, 10), Options{Now: now})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.SolveTime <= 0 {
		t.Fatalf("SolveTime = %v", sol.Stats.SolveTime)
	}
}

func TestObserverStreamsNodes(t *testing.T) {
	rec := NewTreeRecorder()
	p := hardInstance(5, 14)
	sol, err := Solve(p, Options{Progress: rec.Observe})
	events := rec.Nodes()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if len(events) != sol.Stats.Nodes {
		t.Fatalf("observer saw %d events for %d explored nodes", len(events), sol.Stats.Nodes)
	}
	valid := map[string]bool{"integral": true, "infeasible": true, "branched": true, "pruned": true}
	lastNode := 0
	for i, e := range events {
		if !valid[e.Action] {
			t.Fatalf("event %d has unknown action %q", i, e.Action)
		}
		if e.Node <= lastNode {
			t.Fatalf("event %d node %d not increasing past %d", i, e.Node, lastNode)
		}
		lastNode = e.Node
		if e.HasInc && e.Bound < sol.Objective-1e-6 && e.Action == "branched" {
			// A node branched with a bound below the final optimum would
			// have been pruned by a consistent search.
			t.Fatalf("event %d branched below final objective: bound %g < %g", i, e.Bound, sol.Objective)
		}
	}
	// Infeasible root: no node record, but the bound is still stamped.
	bad := NewProblem(&lp.Problem{})
	x := bad.AddBinVar(1, "x")
	bad.LP.AddConstraint([]int{x}, []float64{1}, lp.GE, 2, "")
	rec = NewTreeRecorder()
	sol, err = Solve(bad, Options{Progress: rec.Observe})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible || len(rec.Nodes()) != 0 {
		t.Fatalf("infeasible root: status %v, %d events", sol.Status, len(rec.Nodes()))
	}
	if !math.IsInf(sol.Stats.BestBound, -1) {
		t.Fatalf("infeasible bound = %g", sol.Stats.BestBound)
	}
}

func TestBruteForceTooManyBinaries(t *testing.T) {
	p := NewProblem(&lp.Problem{})
	for i := 0; i < 25; i++ { // 2^25 assignments > BruteForceMaxAssignments
		p.AddBinVar(1, "")
	}
	_, err := BruteForce(p)
	var tooLarge *TooLargeError
	if !errors.As(err, &tooLarge) {
		t.Fatalf("BruteForce error = %v, want *TooLargeError", err)
	}
	if tooLarge.Assignments <= BruteForceMaxAssignments {
		t.Fatalf("Assignments = %g, want > %d", tooLarge.Assignments, BruteForceMaxAssignments)
	}
	if msg := tooLarge.Error(); !strings.Contains(msg, "brute force") || !strings.Contains(msg, "limit 1048576") {
		t.Fatalf("unhelpful error message %q", msg)
	}
}

func TestBruteForceWideIntegerRangeRejected(t *testing.T) {
	// A few wide general-integer ranges blow the assignment space just as
	// surely as many binaries.
	p := NewProblem(&lp.Problem{})
	for i := 0; i < 4; i++ {
		addIntVar(p, 1, 0, 99, "")
	}
	var tooLarge *TooLargeError
	if _, err := BruteForce(p); !errors.As(err, &tooLarge) {
		t.Fatalf("BruteForce error = %v, want *TooLargeError", err)
	}
}

func TestBruteForceInfiniteBoundRejected(t *testing.T) {
	p := NewProblem(&lp.Problem{})
	addIntVar(p, 1, 0, math.Inf(1), "free")
	p.LP.AddConstraint([]int{0}, []float64{1}, lp.LE, 3, "cap")
	if _, err := BruteForce(p); err == nil {
		t.Fatal("BruteForce accepted an infinite integer bound")
	}
}
