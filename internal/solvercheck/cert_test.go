package solvercheck

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"insitu/internal/lp"
)

// The certificate's self-tests: bases and rays broken in ways that provably
// break the proof must be rejected, each with the violation named and sized.

// optimalBases yields, for RandLP seeds, each instance its solver proved
// optimal with the certified basis, the solution, and the basis's reduced
// costs, those below 1e-7 in magnitude read as zero.
func optimalBases(t *testing.T, seeds int64, f func(seed int64, p *lp.Problem, basic []int, atUpper []bool, sol *lp.Solution, rc []float64)) {
	t.Helper()
	for seed := int64(0); seed < seeds; seed++ {
		p := RandLP(rand.New(rand.NewSource(seed)), LPConfig{})
		s, err := lp.NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		sol := s.SolveCold(p.Lower, p.Upper)
		if sol.Status != lp.Optimal {
			continue
		}
		if err := certify(s, p, p.Lower, p.Upper, sol, &revisedCoverage{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		basic, atUpper := s.Basis().Columns(p)
		rc := make([]float64, p.NumVars())
		s.ReducedCosts(rc, make([]bool, len(rc)))
		for j, d := range rc {
			if math.Abs(d) < 1e-7 {
				rc[j] = 0
			}
		}
		f(seed, p, basic, atUpper, sol, rc)
	}
}

// TestCertificateRejectsSwappedBases swaps a nonbasic variable with a nonzero
// reduced cost into each place of an optimal basis. Where the new basis is
// nonsingular, its vertex feasible and its objective worse, weak duality says
// the basis cannot be dual feasible: the certificate must report a dual
// violation.
func TestCertificateRejectsSwappedBases(t *testing.T) {
	caught := 0
	optimalBases(t, 300, func(seed int64, p *lp.Problem, basic []int, atUpper []bool, sol *lp.Solution, rc []float64) {
		for j, d := range rc {
			if d == 0 || p.Lower[j] == p.Upper[j] {
				continue
			}
			for k, c := range basic {
				swapped := append([]int(nil), basic...)
				swapped[k] = j
				rests := append([]bool(nil), atUpper...)
				if c < p.NumVars() {
					rests[c] = false
				}
				cert, err := certifyOptimal(p, p.Lower, p.Upper, swapped, rests, sol)
				if err != nil || cert.primal.size > 0 || cert.objective <= objTol*math.Max(1, math.Abs(sol.Objective)) {
					continue // singular, infeasible, or another optimum
				}
				if err := cert.err(sol.Objective); err == nil || !strings.HasPrefix(err.Error(), "dual violation") {
					t.Fatalf("seed %d: x[%d] swapped in for column %d: %v, want a dual violation", seed, j, c, err)
				}
				caught++
			}
		}
	})
	if caught < 100 {
		t.Fatalf("only %d swapped bases were feasible and worse", caught)
	}
}

// TestCertificateRejectsFlippedBounds moves one nonbasic variable with a
// nonzero reduced cost to its other bound: the vertex either leaves the box or
// rests the variable on the side its reduced cost says to leave.
func TestCertificateRejectsFlippedBounds(t *testing.T) {
	caught := 0
	optimalBases(t, 200, func(seed int64, p *lp.Problem, basic []int, atUpper []bool, sol *lp.Solution, rc []float64) {
		for j, d := range rc {
			if d == 0 || p.Lower[j] == p.Upper[j] {
				continue
			}
			flipped := append([]bool(nil), atUpper...)
			flipped[j] = !flipped[j]
			cert, err := certifyOptimal(p, p.Lower, p.Upper, basic, flipped, sol)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if cert.primal.size == 0 && cert.dual.size == 0 || cert.primal.what == "" && cert.dual.what == "" {
				t.Fatalf("seed %d: x[%d] moved to its other bound passes: %+v", seed, j, cert)
			}
			caught++
		}
	})
	if caught < 200 {
		t.Fatalf("only %d bounds flipped", caught)
	}
}

// TestCertificateRejectsBrokenRays takes the Farkas rays of cold and warm
// infeasible verdicts along bound-tightening walks and, for each row r with a
// multiplier whose problem without row r is feasible, flips that multiplier's
// sign or drops it. A point feasible without row r puts y·(Ax ± s) − y·b at
// y_r times row r's residual, which the ray makes positive: flipped it is
// negative and dropped it is zero, so the ray must fail either way. A verdict
// without a ray is accepted only on conflicting bounds.
func TestCertificateRejectsBrokenRays(t *testing.T) {
	var cold, warm, broken int
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := RandLP(rng, LPConfig{})
		s, err := lp.NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		lower := append([]float64(nil), p.Lower...)
		upper := append([]float64(nil), p.Upper...)
		for round := 0; round < 6; round++ {
			sol, isWarm := s.Solve(lower, upper)
			y := make([]float64, len(p.Constraints))
			if sol.Status == lp.Infeasible && s.FarkasRay(y) {
				if isWarm {
					warm++
				} else {
					cold++
				}
				broken += breakRay(t, seed, p, lower, upper, y)
			}
			j := rng.Intn(p.NumVars())
			if lower[j] < upper[j] {
				lower[j]++
			}
		}
	}
	if cold < 30 || warm < 30 || broken < 200 {
		t.Fatalf("%d cold and %d warm rays, %d broken ones rejected", cold, warm, broken)
	}

	// Conflicting bounds need no ray; a verdict that has neither is refused.
	p := RandLP(rand.New(rand.NewSource(1)), LPConfig{})
	s, err := lp.NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	lower := append([]float64(nil), p.Lower...)
	lower[0] = p.Upper[0] + 1
	if sol, _ := s.Solve(lower, p.Upper); certify(s, p, lower, p.Upper, sol, &revisedCoverage{}) != nil {
		t.Fatal("conflicting bounds not accepted as their own proof")
	}
	if err := certify(s, p, p.Lower, p.Upper, &lp.Solution{Status: lp.Infeasible}, &revisedCoverage{}); err == nil {
		t.Fatal("an infeasible verdict with neither ray nor conflicting bounds was accepted")
	}
}

// breakRay checks that y proves p infeasible under the bounds, flips and
// drops each multiplier whose row is all that stands between p and a feasible
// point, and returns how many broken rays it saw rejected.
func breakRay(t *testing.T, seed int64, p *lp.Problem, lower, upper, y []float64) int {
	t.Helper()
	if v := farkasGap(p, lower, upper, y); v.size <= 0 {
		t.Fatalf("seed %d: the solver's ray fails: %s", seed, v.what)
	}
	rejected := 0
	for r := range y {
		if y[r] == 0 || !feasibleWithout(p, r, lower, upper) {
			continue
		}
		for _, v := range []float64{-y[r], 0} {
			z := append([]float64(nil), y...)
			z[r] = v
			if g := farkasGap(p, lower, upper, z); g.size > 0 || g.what == "" {
				t.Fatalf("seed %d: ray with y[%d] = %g instead of %g passes by %g", seed, r, v, y[r], g.size)
			}
			rejected++
		}
	}
	return rejected
}

// feasibleWithout reports whether p without row r has a certified feasible
// point under the bounds.
func feasibleWithout(p *lp.Problem, r int, lower, upper []float64) bool {
	q := p.Clone()
	q.Constraints = append(q.Constraints[:r:r], q.Constraints[r+1:]...)
	s, err := lp.NewSolver(q)
	if err != nil {
		return false
	}
	sol := s.SolveCold(lower, upper)
	return sol.Status == lp.Optimal && certify(s, q, lower, upper, sol, &revisedCoverage{}) == nil
}
