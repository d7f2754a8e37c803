package milp

import (
	"math"
	"math/rand"
	"testing"

	"insitu/internal/lp"
)

// Rounding oracle. heurCtxRef.round is the rounding heuristic as it was
// before it took the caller's integrality verdict, dropped its mode slice for
// a plain loop, clamped with the builtin min/max, read what the integer boxes
// allow from newHeurCtx instead of per call, and stopped copying bounds (or
// keeping an upper-bound buffer) on pure-integer models. It is the reference
// heurCtx.round must match bit for bit, and it lives here only.

type heurCtxRef struct {
	solver       *lp.Solver
	lower, upper []float64
}

func intFeasibleRef(p *Problem, x []float64, tol float64) bool {
	for j, isInt := range p.Integer {
		if !isInt {
			continue
		}
		if math.Abs(x[j]-math.Round(x[j])) > tol {
			return false
		}
	}
	return true
}

func (h *heurCtxRef) round(p *Problem, x []float64, tol float64, st *Stats) ([]float64, bool) {
	if intFeasibleRef(p, x, tol) {
		if cand := snap(h.upper, p, x); p.LP.Feasible(cand) {
			return cand, true
		}
	}
	for _, mode := range []func(float64) float64{math.Floor, math.Round} {
		copy(h.lower, p.LP.Lower)
		copy(h.upper, p.LP.Upper)
		for j, isInt := range p.Integer {
			if !isInt {
				continue
			}
			lo, hi := math.Ceil(p.LP.Lower[j]), math.Floor(p.LP.Upper[j])
			if lo > hi {
				return nil, false // no integer inside the bounds
			}
			v := math.Min(math.Max(mode(x[j]+tol), lo), hi)
			h.lower[j], h.upper[j] = v, v
		}
		cand := h.lower // integral by construction when every variable is
		if h.solver != nil {
			sol := h.solver.SolveCold(h.lower, h.upper)
			st.Relaxations++
			st.Pivots += sol.Iters
			if sol.Status != lp.Optimal {
				continue
			}
			cand = snap(h.upper, p, sol.X)
		}
		if p.LP.Feasible(cand) {
			return cand, true
		}
	}
	return nil, false
}

// Integer-box shapes of randRoundModel: binaries (some with a -0 lower
// bound), general boxes on half-integers, and those plus one box holding no
// integer.
const (
	integralBoxes = iota
	halfBoxes
	emptyBox
)

// randRoundModel is randParallelMILP with integer boxes of the given shape
// and — when mixed — some variables continuous.
func randRoundModel(rng *rand.Rand, shape int, mixed bool) *Problem {
	p := randParallelMILP(rng)
	for j := range p.Integer {
		switch {
		case shape != integralBoxes && rng.Intn(2) == 0:
			p.LP.Lower[j] = float64(rng.Intn(3)) / 2
			p.LP.Upper[j] = p.LP.Lower[j] + float64(1+rng.Intn(6))/2
		case rng.Intn(3) == 0:
			p.LP.Lower[j] = math.Copysign(0, -1)
		}
		if mixed && rng.Intn(3) == 0 {
			p.Integer[j] = false
		}
	}
	if shape == emptyBox {
		j := rng.Intn(len(p.Integer))
		p.Integer[j] = true
		p.LP.Lower[j], p.LP.Upper[j] = 0.2, 0.8
	}
	return p
}

// randRelaxPoint draws a point to round: per variable an integer, a near
// integer within or just past tol, -0, exactly -tol, or anything in and
// around the bounds; at times every integer variable sits within tol of an
// integer, so the integral fast path runs.
func randRelaxPoint(rng *rand.Rand, p *Problem, tol float64) []float64 {
	x := make([]float64, p.LP.NumVars())
	nearIntegral := rng.Intn(3) == 0
	for j := range x {
		lo, up := p.LP.Lower[j], p.LP.Upper[j]
		k := rng.Intn(7)
		if nearIntegral && p.Integer[j] {
			k = rng.Intn(3)
		}
		switch base := math.Round(lo + rng.Float64()*(up-lo)); k {
		case 0:
			x[j] = base
		case 1:
			x[j] = base + tol*(2*rng.Float64()-1)
		case 2:
			x[j] = math.Copysign(0, -1)
		case 3:
			x[j] = -tol
		case 4:
			x[j] = base + 1.5*tol
		default:
			x[j] = lo - 0.5 + rng.Float64()*(up-lo+1)
		}
	}
	return x
}

// TestRoundMatchesReference holds heurCtx.round to the reference on random
// relaxation points of pure-integer and mixed models: the verdict, every bit
// of the candidate (the sign of a zero included), and the LP work charged.
func TestRoundMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1028))
	var fast, found, empty, mixedFound, integralFound int
	for trial := 0; trial < 600; trial++ {
		mixed := trial%2 == 1
		p := randRoundModel(rng, trial/2%3, mixed)
		n := p.LP.NumVars()
		var h *heurCtx
		ref := &heurCtxRef{lower: make([]float64, n), upper: make([]float64, n)}
		if hasContinuous(p) {
			solvers, err := lp.NewSolvers(p.LP, 2)
			if err != nil {
				t.Fatal(err)
			}
			h = new(heurCtx)
			h.init(p, solvers[0])
			ref.solver = solvers[1]
			ref.solver.Lean, ref.solver.NoWarm = true, true
		} else {
			h = new(heurCtx)
			h.init(p, nil)
			if h.upper != nil {
				t.Fatalf("trial %d: a pure-integer model got an upper-bound buffer", trial)
			}
		}
		const tol = lp.IntTol // the tolerance every search rounds under
		for k := 0; k < 16; k++ {
			x := randRelaxPoint(rng, p, tol)
			integral := mostFractional(p, x, tol) < 0
			if integral != intFeasibleRef(p, x, tol) {
				t.Fatalf("trial %d: mostFractional < 0 is %t on %v, intFeasible %t", trial, integral, x, !integral)
			}
			var st, stRef Stats
			got, ok := h.round(p, x, integral, &st)
			want, okRef := ref.round(p, x, tol, &stRef)
			if ok != okRef || len(got) != len(want) {
				t.Fatalf("trial %d, x %v, tol %g: round %v (%t), reference %v (%t)", trial, x, tol, got, ok, want, okRef)
			}
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("trial %d, x %v, tol %g: candidate[%d] = %v, reference %v", trial, x, tol, j, got[j], want[j])
				}
			}
			if st.Relaxations != stRef.Relaxations || st.Pivots != stRef.Pivots {
				t.Fatalf("trial %d: charged %d relaxations, %d pivots; reference %d, %d", trial, st.Relaxations, st.Pivots, stRef.Relaxations, stRef.Pivots)
			}
			switch {
			case ok && integral:
				fast++
			case ok:
				found++
				if mixed {
					mixedFound++
				}
				if h.integralBounds {
					integralFound++
				}
			case h.noInteger && !integral:
				empty++
			}
		}
	}
	t.Logf("%d integral points rounded, %d others (%d mixed, %d on integral boxes), %d refused for an integer-free box", fast, found, mixedFound, integralFound, empty)
	if fast < 50 || found < 50 || mixedFound < 20 || integralFound < 20 || found-integralFound < 20 || empty < 50 {
		t.Fatalf("%d integral, %d others (%d mixed, %d on integral boxes), %d integer-free: the corpus no longer reaches every path", fast, found, mixedFound, integralFound, empty)
	}
}
