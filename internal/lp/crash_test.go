package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Crash-basis tests. The noCrash hook starts the same state from the
// all-slack basis, which is the reference every crash-started answer is held
// to here; package solvercheck certifies them exactly as well.

// seatCrash resets rv for the bounds and runs the crash alone, reporting
// whether it seated a basis.
func seatCrash(rv *revised, lower, upper []float64) bool {
	before := rv.stats.CrashStarts
	rv.reset(lower, upper)
	rv.crash(lower, upper)
	return rv.stats.CrashStarts > before
}

// checkSeated verifies what crash promises about the basis it leaves: one
// distinct basic column per row, none of them an artificial (so phase 1 is
// skipped), every basic value inside its bounds, every nonbasic column at
// zero, and the point satisfying the rows at the requested bounds.
func checkSeated(t *testing.T, name string, rv *revised, upper []float64) {
	t.Helper()
	seen := map[int]bool{}
	x := make([]float64, rv.cs.nOrig)
	for i, col := range rv.basis {
		if col >= rv.n || seen[col] || !rv.inBasis[col] {
			t.Fatalf("%s: row %d holds column %d (repeated: %t)", name, i, col, seen[col])
		}
		seen[col] = true
		if rv.xB[i] < rv.lo[col] || rv.xB[i] > rv.up[col] {
			t.Fatalf("%s: basic column %d at %g outside [%g, %g]", name, col, rv.xB[i], rv.lo[col], rv.up[col])
		}
		if col < len(x) {
			x[col] = rv.xB[i]
		}
	}
	for j := 0; j < rv.n; j++ {
		if !rv.inBasis[j] && rv.atUpper[j] {
			t.Fatalf("%s: nonbasic column %d rests at its upper bound", name, j)
		}
	}
	if v := violation(rv.p, x, upper); v != "" {
		t.Fatalf("%s: crash point infeasible: %s", name, v)
	}
}

// violation is FirstViolation at the given upper bounds, with a tolerance
// relative to each row's right-hand side: the campaign models carry a memory
// row in bytes, where one ulp of the right-hand side is near 1e-7.
func violation(p *Problem, x, upper []float64) string {
	for j := range x {
		if x[j] < -1e-9 || x[j] > upper[j]+1e-9 {
			return fmt.Sprintf("x[%d] = %g outside [0, %g]", j, x[j], upper[j])
		}
	}
	for r, c := range p.Constraints {
		lhs := 0.0
		for k, j := range c.Idx {
			lhs += c.Coef[k] * x[j]
		}
		tol := 1e-9 * (1 + math.Abs(c.RHS))
		if c.Sense != GE && lhs > c.RHS+tol || c.Sense != LE && lhs < c.RHS-tol {
			return fmt.Sprintf("row %d: %.17g %v %.17g violated", r, lhs, c.Sense, c.RHS)
		}
	}
	return ""
}

// campaignLP mimics the compact scheduling model of the sparse benchmark
// pools: per analysis a handful of modes with integer-weighted objective,
// quarter-second costs and MiB-granular memory in bytes, one time row and one
// memory row whose right-hand sides differ by nine orders of magnitude.
func campaignLP(rng *rand.Rand, analyses int, memTight bool) *Problem {
	p := &Problem{}
	var all []int
	var cost, mem []float64
	for a := 0; a < analyses; a++ {
		w := []float64{1, 1, 2, 3}[rng.Intn(4)]
		ct, ot := 0.25+0.25*float64(rng.Intn(12)), 0.25*float64(rng.Intn(4))
		fm, om := float64(int64(rng.Intn(64))<<20), float64(int64(rng.Intn(64))<<20)
		var idx []int
		var one []float64
		for count := 1; count <= 4; count++ {
			for k := 1; k <= count; k += 1 + rng.Intn(2) {
				j := p.AddVar(1+w*float64(count), 0, 1, "")
				idx, one, all = append(idx, j), append(one, 1), append(all, j)
				cost = append(cost, ct*float64(count)+ot*float64(k))
				mem = append(mem, fm+om*float64(count-k+1))
			}
		}
		p.AddConstraint(idx, one, LE, 1, "")
	}
	p.Classes = analyses
	p.AddConstraint(all, cost, LE, 2.7*float64(analyses), "")
	room := float64(int64(12) << 30)
	if memTight {
		room = float64(int64(analyses) << 25)
	}
	p.AddConstraint(all, mem, LE, room, "")
	return p
}

// TestCrashStartMatchesAllSlack: wherever the crash seats a basis it is a
// feasible one, and the solve that starts there ends on the status and the
// objective of the solve that starts from the slacks — at the problem's own
// bounds and with a scattering of columns closed the way presolve and
// branching close them.
func TestCrashStartMatchesAllSlack(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	seated, saved := 0, 0
	check := func(name string, p *Problem) {
		upper := append([]float64(nil), p.Upper...)
		for round := 0; round < 3; round++ {
			cs := buildColStore(p)
			probe := newRevised(p, cs)
			if seatCrash(probe, p.Lower, upper) {
				seated++
				checkSeated(t, name, probe, upper)
			}
			crash, slack := newRevised(p, cs), newRevised(p, cs)
			slack.noCrash = true
			got, want := crash.solveCold(p.Lower, upper), slack.solveCold(p.Lower, upper)
			if got.Status != want.Status {
				t.Fatalf("%s round %d: crash start ended %v, all-slack start %v", name, round, got.Status, want.Status)
			}
			if math.Abs(got.Objective-want.Objective) > 1e-9*(1+math.Abs(want.Objective)) {
				t.Fatalf("%s round %d: crash start reached %.12g, all-slack start %.12g", name, round, got.Objective, want.Objective)
			}
			if v := violation(p, got.X, upper); got.Status == Optimal && v != "" {
				t.Fatalf("%s round %d: %s", name, round, v)
			}
			if crash.stats.CrashStarts == 1 && got.Iters < want.Iters {
				saved++
			}
			for k := 0; k < 1+len(upper)/8; k++ {
				upper[rng.Intn(len(upper))] = 0
			}
		}
	}
	for trial := 0; trial < 150; trial++ {
		check("choice knapsack", randChoiceKnapsack(rng, 1+rng.Intn(10), 1+rng.Intn(7)))
	}
	for trial := 0; trial < 30; trial++ {
		check("campaign", campaignLP(rng, 3+rng.Intn(60), trial%2 == 1))
	}
	if seated < 400 || saved < 300 {
		t.Fatalf("the crash seated %d bases and saved iterations on %d solves; the corpus no longer reaches it", seated, saved)
	}
}

// TestCrashLandsOnTheOptimumOfOneBindingRow: with one knapsack row binding
// (the other has room for everything) the greedy point is the LP optimum, so
// phase 2 only proves it.
func TestCrashLandsOnTheOptimumOfOneBindingRow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		p := campaignLP(rng, 20+rng.Intn(80), false)
		rv := newRevised(p, buildColStore(p))
		sol := rv.solveCold(p.Lower, p.Upper)
		if sol.Status != Optimal || rv.stats.CrashStarts != 1 || rv.stats.PrimalPivots != 0 {
			t.Fatalf("trial %d: %v after %d iterations and %d pivots from %d crash starts, want the proof alone",
				trial, sol.Status, sol.Iters, rv.stats.PrimalPivots, rv.stats.CrashStarts)
		}
	}
}

// crashBase is a crashable model: two declared classes over two knapsack
// rows.
func crashBase() *Problem {
	p := &Problem{Classes: 2}
	for j := 0; j < 6; j++ {
		p.AddVar(float64(1+j%3), 0, 1, "")
	}
	p.AddConstraint([]int{0, 1, 2}, []float64{1, 1, 1}, LE, 1, "")
	p.AddConstraint([]int{3, 4, 5}, []float64{1, 1, 1}, LE, 1, "")
	p.AddConstraint([]int{0, 1, 2, 3, 4, 5}, []float64{2, 3, 5, 1, 4, 6}, LE, 7, "")
	p.AddConstraint([]int{0, 1, 2, 3, 4, 5}, []float64{3, 1, 2, 5, 2, 1}, LE, 4, "")
	return p
}

// TestCrashDeclines: a model that declares no classes, or no knapsack row,
// and every start the greedy has nothing to offer for, is solved exactly as
// the all-slack start solves it — same status, iterations, objective and
// point, bit for bit.
func TestCrashDeclines(t *testing.T) {
	if p := crashBase(); !seatCrash(newRevised(p, buildColStore(p)), p.Lower, p.Upper) {
		t.Fatal("the base model itself is declined; the table below would prove nothing")
	}
	cases := []struct {
		name string
		edit func(p *Problem)
	}{
		{"undeclared", func(p *Problem) { p.Classes = 0 }},
		{"no knapsack row", func(p *Problem) { p.Constraints = p.Constraints[:2] }},
		{"no rows", func(p *Problem) { p.Constraints, p.Classes = nil, 0 }},
		{"nonzero lower bound", func(p *Problem) { p.Lower[4] = 1 }},
		{"every column closed", func(p *Problem) {
			for j := range p.Upper {
				p.Upper[j] = 0
			}
		}},
		{"nothing to gain", func(p *Problem) {
			for j := range p.Objective {
				p.Objective[j] = -1
			}
		}},
	}
	for _, tc := range cases {
		p := crashBase()
		tc.edit(p)
		cs := buildColStore(p)
		crash, slack := newRevised(p, cs), newRevised(p, cs)
		slack.noCrash = true
		got, want := crash.solveCold(p.Lower, p.Upper), slack.solveCold(p.Lower, p.Upper)
		if crash.stats.CrashStarts != 0 {
			t.Errorf("%s: the crash seated a basis", tc.name)
		}
		if got.Status != want.Status || got.Iters != want.Iters || got.Objective != want.Objective {
			t.Errorf("%s: %v/%d/%v, all-slack start %v/%d/%v", tc.name, got.Status, got.Iters, got.Objective, want.Status, want.Iters, want.Objective)
		}
		for j := range want.X {
			if got.X[j] != want.X[j] {
				t.Errorf("%s: x[%d] = %v, all-slack start %v", tc.name, j, got.X[j], want.X[j])
			}
		}
	}
	if sol, err := Solve(&Problem{}); err != nil || sol.Status != Optimal {
		t.Errorf("empty problem: %v, %v", sol, err)
	}

	// One class closed by presolve is no reason to decline: the others crash,
	// and the closed class keeps its slack.
	p := crashBase()
	p.Upper[0], p.Upper[1], p.Upper[2] = 0, 0, 0
	rv := newRevised(p, buildColStore(p))
	if !seatCrash(rv, p.Lower, p.Upper) {
		t.Fatal("a closed class made the crash decline the open one")
	}
	checkSeated(t, "one closed class", rv, p.Upper)
	if col := rv.basis[0]; col != rv.cs.slackCol[0] {
		t.Fatalf("the closed class's row holds column %d, want its slack %d", col, rv.cs.slackCol[0])
	}
}

// TestCrashAllocatesOncePerSolver: the shape and its scratch are built by the
// first cold solve; a later crash on the same Solver allocates nothing.
func TestCrashAllocatesOncePerSolver(t *testing.T) {
	p := campaignLP(rand.New(rand.NewSource(8)), 40, true)
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	s.Lean = true
	if s.SolveCold(p.Lower, p.Upper).Status != Optimal || s.Stats.CrashStarts != 1 {
		t.Fatalf("first cold solve: %d crash starts", s.Stats.CrashStarts)
	}
	rv := s.state()
	if n := testing.AllocsPerRun(20, func() { seatCrash(rv, p.Lower, p.Upper) }); n != 0 {
		t.Fatalf("a crash on a warm Solver allocates %v times", n)
	}
	// And the whole second cold solve allocates what an all-slack one does:
	// the Solution it returns.
	slack, _ := NewSolver(p)
	slack.Lean = true
	slack.state().noCrash = true
	slack.SolveCold(p.Lower, p.Upper)
	with := testing.AllocsPerRun(20, func() { s.SolveCold(p.Lower, p.Upper) })
	without := testing.AllocsPerRun(20, func() { slack.SolveCold(p.Lower, p.Upper) })
	if with > without {
		t.Fatalf("a crash-started cold solve allocates %v times, an all-slack one %v", with, without)
	}
}
