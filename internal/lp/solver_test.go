package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randBoundedProblem builds a random feasible-looking LP with finite bounds,
// mixed senses, and a mix of integer-like [0,1]/[0,k] boxes — the shape the
// branch-and-bound layer feeds the solver.
func randBoundedProblem(rng *rand.Rand) *Problem {
	n := 2 + rng.Intn(5)
	m := 1 + rng.Intn(4)
	p := &Problem{}
	for j := 0; j < n; j++ {
		up := float64(1 + rng.Intn(5))
		p.AddVar(math.Round(rng.Float64()*10)-3, 0, up, "")
	}
	for r := 0; r < m; r++ {
		coef := make([]float64, n)
		idx := make([]int, n)
		for j := 0; j < n; j++ {
			idx[j] = j
			coef[j] = math.Round(rng.Float64()*6 - 2)
		}
		sense := Sense(rng.Intn(3))
		rhs := math.Round(rng.Float64() * 8)
		if sense == EQ {
			// Keep equality rows satisfiable: use the row value at a random
			// interior-ish point.
			rhs = 0
			for j := 0; j < n; j++ {
				rhs += coef[j] * math.Round(p.Upper[j]/2)
			}
		}
		p.AddConstraint(idx, coef, sense, rhs, "")
	}
	return p
}

// perturbBounds tightens/loosens a few variable bounds the way branching
// does: integer splits (floor/ceil), fixings, and occasional restorations.
func perturbBounds(rng *rand.Rand, p *Problem, lower, upper []float64) {
	for k := 0; k < 1+rng.Intn(2); k++ {
		j := rng.Intn(p.NumVars())
		switch rng.Intn(4) {
		case 0: // branch down
			upper[j] = math.Max(p.Lower[j], math.Floor(upper[j]-0.5))
		case 1: // branch up
			lower[j] = math.Min(p.Upper[j], math.Ceil(lower[j]+0.5))
		case 2: // fix
			v := math.Round(p.Lower[j] + rng.Float64()*(p.Upper[j]-p.Lower[j]))
			lower[j], upper[j] = v, v
		case 3: // restore
			lower[j], upper[j] = p.Lower[j], p.Upper[j]
		}
		if lower[j] > upper[j] {
			lower[j], upper[j] = p.Lower[j], p.Upper[j]
		}
	}
}

// TestSolverWarmMatchesCold drives a Solver through random branching-style
// bound sequences and checks every warm answer against an independent cold
// solve of the same bounds: same status, same objective, and a feasible
// primal point. This is the correctness contract the parallel
// branch-and-bound search relies on.
func TestSolverWarmMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	warmSeen := 0
	for trial := 0; trial < 120; trial++ {
		p := randBoundedProblem(rng)
		s, err := NewSolver(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		s.Lean = true
		lower := append([]float64(nil), p.Lower...)
		upper := append([]float64(nil), p.Upper...)
		for step := 0; step < 12; step++ {
			sol, warm := s.Solve(lower, upper)
			if warm {
				warmSeen++
			}
			work := p.Clone()
			copy(work.Lower, lower)
			copy(work.Upper, upper)
			ref, err := Solve(work)
			if err != nil {
				t.Fatalf("trial %d step %d: reference: %v", trial, step, err)
			}
			if sol.Status != ref.Status {
				t.Fatalf("trial %d step %d (warm=%v): status %v, reference %v", trial, step, warm, sol.Status, ref.Status)
			}
			if sol.Status == Optimal {
				if math.Abs(sol.Objective-ref.Objective) > 1e-6*(1+math.Abs(ref.Objective)) {
					t.Fatalf("trial %d step %d (warm=%v): objective %g, reference %g", trial, step, warm, sol.Objective, ref.Objective)
				}
				if v := work.FirstViolation(sol.X, 1e-6); v != "" {
					t.Fatalf("trial %d step %d (warm=%v): infeasible point: %s", trial, step, warm, v)
				}
			}
			perturbBounds(rng, p, lower, upper)
		}
	}
	if warmSeen == 0 {
		t.Fatal("no warm solve ever happened; the warm path is dead")
	}
	t.Logf("warm solves: %d", warmSeen)
}

// TestSolverColdMatchesSolve pins the cold-path contract: SolveCold
// through reused buffers must reproduce lp.Solve exactly, including the
// iteration count (same pivots in the same order).
func TestSolverColdMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		p := randBoundedProblem(rng)
		s, err := NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		lower := append([]float64(nil), p.Lower...)
		upper := append([]float64(nil), p.Upper...)
		for step := 0; step < 6; step++ {
			got := s.SolveCold(lower, upper)
			work := p.Clone()
			copy(work.Lower, lower)
			copy(work.Upper, upper)
			ref, err := Solve(work)
			if err != nil {
				t.Fatal(err)
			}
			if got.Status != ref.Status || got.Iters != ref.Iters {
				t.Fatalf("trial %d step %d: status/iters %v/%d, reference %v/%d",
					trial, step, got.Status, got.Iters, ref.Status, ref.Iters)
			}
			if got.Status == Optimal {
				if got.Objective != ref.Objective {
					t.Fatalf("trial %d step %d: objective %v != reference %v", trial, step, got.Objective, ref.Objective)
				}
				for j := range got.X {
					if got.X[j] != ref.X[j] {
						t.Fatalf("trial %d step %d: X[%d] %v != reference %v", trial, step, j, got.X[j], ref.X[j])
					}
				}
			}
			perturbBounds(rng, p, lower, upper)
		}
	}
}

// TestSolverConflictingBounds checks the lower>upper short-circuit.
func TestSolverConflictingBounds(t *testing.T) {
	p := &Problem{}
	p.AddVar(1, 0, 4, "x")
	p.AddConstraint([]int{0}, []float64{1}, LE, 3, "cap")
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	sol, warm := s.Solve([]float64{2}, []float64{1})
	if sol.Status != Infeasible || warm {
		t.Fatalf("conflicting bounds: status %v warm %v", sol.Status, warm)
	}
	// The solver must still work afterwards.
	sol, _ = s.Solve([]float64{0}, []float64{4})
	if sol.Status != Optimal || math.Abs(sol.Objective-3) > 1e-9 {
		t.Fatalf("after conflict: %v obj %g", sol.Status, sol.Objective)
	}
}

// TestSolverWarmReducesPivots checks the point of the exercise: across a
// branching-style bound sequence, the warm path spends fewer total pivots
// than cold-only on the same sequence.
func TestSolverWarmReducesPivots(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	totalWarm, totalCold := 0, 0
	for trial := 0; trial < 40; trial++ {
		p := randBoundedProblem(rng)
		seqLower := make([][]float64, 0, 16)
		seqUpper := make([][]float64, 0, 16)
		lower := append([]float64(nil), p.Lower...)
		upper := append([]float64(nil), p.Upper...)
		for step := 0; step < 16; step++ {
			seqLower = append(seqLower, append([]float64(nil), lower...))
			seqUpper = append(seqUpper, append([]float64(nil), upper...))
			perturbBounds(rng, p, lower, upper)
		}
		warmS, _ := NewSolver(p)
		warmS.Lean = true
		coldS, _ := NewSolver(p)
		coldS.Lean = true
		coldS.NoWarm = true
		for i := range seqLower {
			warmS.Solve(seqLower[i], seqUpper[i])
			coldS.Solve(seqLower[i], seqUpper[i])
		}
		totalWarm += warmS.Stats.Pivots
		totalCold += coldS.Stats.Pivots
	}
	if totalWarm >= totalCold {
		t.Fatalf("warm starts did not reduce pivots: warm=%d cold=%d", totalWarm, totalCold)
	}
	t.Logf("pivots: warm=%d cold=%d (%.1f%% saved)", totalWarm, totalCold,
		100*(1-float64(totalWarm)/float64(totalCold)))
}

// TestSolveFromMatchesCold is the contract branch and bound relies on when a
// child is re-solved from its parent's basis on whichever solver is free:
// a snapshot taken on one Solver, continued on another (fresh, or with a
// history of its own) under later bounds, gives the status and objective of
// a cold solve of those bounds.
func TestSolveFromMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	warmSeen := 0
	for trial := 0; trial < 120; trial++ {
		p := randBoundedProblem(rng)
		src, _ := NewSolver(p)
		fresh, _ := NewSolver(p)
		used, _ := NewSolver(p)
		used.Lean = true
		lower := append([]float64(nil), p.Lower...)
		upper := append([]float64(nil), p.Upper...)
		for step := 0; step < 8; step++ {
			src.Solve(lower, upper)
			snap := src.Basis()
			perturbBounds(rng, p, lower, upper)
			if snap == nil {
				continue
			}
			work := p.Clone()
			copy(work.Lower, lower)
			copy(work.Upper, upper)
			ref, err := Solve(work)
			if err != nil {
				t.Fatal(err)
			}
			for name, s := range map[string]*Solver{"fresh": fresh, "used": used} {
				sol, warm := s.SolveFrom(snap, lower, upper)
				if warm {
					warmSeen++
				}
				if sol.Status != ref.Status {
					t.Fatalf("trial %d step %d %s (warm=%t): status %v, cold %v", trial, step, name, warm, sol.Status, ref.Status)
				}
				if sol.Status != Optimal {
					continue
				}
				if math.Abs(sol.Objective-ref.Objective) > 1e-6*(1+math.Abs(ref.Objective)) {
					t.Fatalf("trial %d step %d %s (warm=%t): objective %g, cold %g", trial, step, name, warm, sol.Objective, ref.Objective)
				}
				if v := work.FirstViolation(sol.X, 1e-6); v != "" {
					t.Fatalf("trial %d step %d %s (warm=%t): infeasible point: %s", trial, step, name, warm, v)
				}
			}
			fresh, _ = NewSolver(p)
		}
	}
	if warmSeen < 100 {
		t.Fatalf("only %d snapshot continuations stayed warm; the path is barely exercised", warmSeen)
	}
}

// TestBasisOnlyAfterOptimal pins what Basis hands out: nothing before a
// solve, a snapshot after an optimal one — which a second solver continues
// from for one refactorization and no cold solve — and nothing again after a
// warm solve the dual simplex certified infeasible (Solve can still continue
// from that basis, but it is not an optimum to snapshot).
func TestBasisOnlyAfterOptimal(t *testing.T) {
	p := &Problem{}
	for j := 0; j < 4; j++ {
		p.AddVar(float64(3+j), 0, 1, "")
	}
	p.AddConstraint([]int{0, 1, 2, 3}, []float64{2, 3, 4, 5}, LE, 6.5, "cap")
	p.AddConstraint([]int{0, 1}, []float64{1, 1}, GE, 0.5, "need")
	a, _ := NewSolver(p)
	b, _ := NewSolver(p)
	if a.Basis() != nil {
		t.Fatal("Basis() before any solve")
	}
	if sol, _ := a.Solve(p.Lower, p.Upper); sol.Status != Optimal {
		t.Fatalf("root: %v", sol.Status)
	}
	snap := a.Basis()
	if snap == nil {
		t.Fatal("no Basis() after an optimal solve")
	}
	down := []float64{1, 1, 0, 1}
	if sol, warm := b.SolveFrom(snap, p.Lower, down); !warm || sol.Status != Optimal || b.Stats.Refactorizations != 1 || b.Stats.Cold != 0 {
		t.Fatalf("second solver: warm=%t status %v stats %+v", warm, sol.Status, b.Stats)
	}
	none := []float64{0, 0, 1, 1}
	if sol, warm := a.Solve(p.Lower, none); !warm || sol.Status != Infeasible || a.Stats.WarmInfeasible != 1 {
		t.Fatalf("infeasible child: warm=%t status %v stats %+v", warm, sol.Status, a.Stats)
	}
	if a.Basis() != nil {
		t.Fatal("Basis() after an infeasible solve")
	}
	if sol, warm := a.Solve(p.Lower, down); !warm || sol.Status != Optimal || a.Basis() == nil {
		t.Fatalf("continuing past the infeasible solve: warm=%t status %v", warm, sol.Status)
	}
}

// TestSolveFromWithBasicArtificial covers a snapshot that holds an artificial
// column: a duplicated equality row keeps one basic at zero (with sign -1 in
// the source solver: the row's residual at the lower bounds is negative), and
// a second solver, which installs it as a +1 column, must still land on the
// cold answer when later bounds move the row.
func TestSolveFromWithBasicArtificial(t *testing.T) {
	p := &Problem{}
	p.AddVar(1, 0, 4, "x")
	p.AddVar(2, 0, 4, "y")
	p.AddVar(0, 3, 9, "z")
	p.AddConstraint([]int{0, 1, 2}, []float64{1, 1, -1}, EQ, -5, "eq")
	p.AddConstraint([]int{0, 1, 2}, []float64{2, 2, -2}, EQ, -10, "eq_twice")
	p.AddConstraint([]int{0, 1}, []float64{1, 3}, LE, 9, "cap")
	src, _ := NewSolver(p)
	if sol := src.SolveCold(p.Lower, p.Upper); sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	snap := src.Basis()
	negative := false
	for _, c := range snap.cols {
		if row := int(c) - src.rv.n; row >= 0 && src.rv.artSign[row] < 0 {
			negative = true
		}
	}
	if !negative {
		t.Fatal("no basic artificial with sign -1; the instance no longer tests what it is for")
	}
	for _, upper := range [][]float64{{4, 2, 9}, {4, 4, 6}, {1, 0, 9}} {
		work := p.Clone()
		copy(work.Upper, upper)
		ref, _ := Solve(work)
		dst, _ := NewSolver(p)
		sol, warm := dst.SolveFrom(snap, p.Lower, upper)
		if !warm || sol.Status != ref.Status || math.Abs(sol.Objective-ref.Objective) > 1e-9 {
			t.Fatalf("upper %v: warm=%t status %v objective %g; cold %v %g", upper, warm, sol.Status, sol.Objective, ref.Status, ref.Objective)
		}
		if v := work.FirstViolation(sol.X, 1e-6); v != "" {
			t.Fatalf("upper %v: continued point violates %s", upper, v)
		}
	}
}
