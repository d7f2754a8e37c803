package solvercheck

import (
	"fmt"
	"math"
	"math/rand"

	"insitu/internal/lp"
)

// This file walks lp's revised kernel through cold, warm and transferred
// solves, each verdict held to its certificate (cert.go), over generators
// aimed at its weak spots: long eta chains, near-singular bases, and models
// wide enough to price selected working sets.

// CheckRevised certifies the cold solve of one instance, then every warm
// re-solve along a short branching-style walk of bound tightenings. One
// snapshot of the walk's basis is continued three rounds later on a second
// Solver — as branch and bound re-solves a child from a parent another worker
// solved — and snapshots that cannot be continued (wrong shape, singular here)
// must be answered by a counted cold fallback. Failures name the violated
// property.
func CheckRevised(rng *rand.Rand, p *lp.Problem) error {
	return checkRevised(rng, p, &revisedCoverage{})
}

// revisedCoverage counts what certified each verdict and how often the
// snapshot paths were reached, so corpus tests can pin that they are at all.
type revisedCoverage struct {
	optimal       int // optimal verdicts certified by their basis
	rays          int // infeasible verdicts certified by a Farkas ray
	dualRays      int // ... of which a warm re-solve's dual simplex found
	warmTransfers int // snapshots a second solver continued warm
	singular      int // snapshots rejected as singular
	refilled      int // cold solves that spent and refilled a pricing working set at least twice
	crashed       int // cold solves that started from a crash basis
}

func checkRevised(rng *rand.Rand, p *lp.Problem, cov *revisedCoverage) error {
	solvers, err := lp.NewSolvers(p, 2)
	if err != nil {
		return fmt.Errorf("lp.NewSolvers: %v", err)
	}
	sv, other := solvers[0], solvers[1]
	// The second solver's cold solve is the instance's own verdict, and gives
	// it a history, so the snapshot later lands on a used state.
	cold := other.SolveCold(p.Lower, p.Upper)
	if err := certify(other, p, p.Lower, p.Upper, cold, cov); err != nil {
		return fmt.Errorf("cold: %v", err)
	}
	coldBasis := other.Basis()
	cov.crashed += other.Stats.CrashStarts
	// After one cold solve Pivots is its iteration count. Fewer full pricing
	// passes than that means some iterations priced a selected set alone, and
	// of the passes up to two are the optimality proofs of the two phases.
	if st := other.Stats; st.FullPricingPasses < st.Pivots && st.FullPricingPasses >= 4 {
		cov.refilled++
	}

	// Branching-style walk: tighten integer bounds a step at a time, warm
	// re-solving through the Solver handle, and certify every answer.
	var snap *lp.Basis
	snapRound := rng.Intn(3)
	lower := append([]float64(nil), p.Lower...)
	upper := append([]float64(nil), p.Upper...)
	for round := 0; round < 6; round++ {
		j := rng.Intn(p.NumVars())
		switch rng.Intn(3) {
		case 0:
			if lower[j] < upper[j] {
				lower[j]++
			}
		case 1:
			if !math.IsInf(upper[j], 1) && upper[j] > lower[j] {
				upper[j]--
			}
		default:
			lower[j], upper[j] = p.Lower[j], p.Upper[j] // relax back
		}
		wsol, _ := sv.Solve(lower, upper)
		if err := certify(sv, p, lower, upper, wsol, cov); err != nil {
			return fmt.Errorf("round %d (var %d in [%g,%g]): %v", round, j, lower[j], upper[j], err)
		}
		if round == snapRound {
			// Nil after a round that ended without a basis: nothing to carry.
			snap = sv.Basis()
		}
		if snap != nil && round == snapRound+3 {
			osol, warm := other.SolveFrom(snap, lower, upper)
			if err := certify(other, p, lower, upper, osol, cov); err != nil {
				return fmt.Errorf("round %d: basis of round %d continued on a second solver: %v", round, snapRound, err)
			}
			if warm {
				cov.warmTransfers++
			}
		}
	}
	cov.dualRays += sv.Stats.WarmInfeasible + other.Stats.WarmInfeasible // each certified above
	return checkBadSnapshots(p, cold, coldBasis, cov)
}

// checkBadSnapshots hands SolveFrom snapshots it cannot continue from and
// requires the cold fallback to answer, be certified, and be counted: snap,
// the optimal basis of p's cold solution opt, on a problem with one more row
// (wrong shape), and on a copy of p in which two of its basic columns are made
// identical (singular there).
func checkBadSnapshots(p *lp.Problem, opt *lp.Solution, snap *lp.Basis, cov *revisedCoverage) error {
	if opt.Status != lp.Optimal {
		return nil
	}
	try := func(what string, q *lp.Problem) error {
		qs, err := lp.NewSolver(q)
		if err != nil {
			return fmt.Errorf("%s: lp.NewSolver: %v", what, err)
		}
		got, warm := qs.SolveFrom(snap, q.Lower, q.Upper)
		if warm || qs.Stats.FallbackCold != 1 || qs.Stats.Cold != 1 {
			return fmt.Errorf("%s: warm=%t with %d fallbacks and %d cold solves, want one counted cold fallback",
				what, warm, qs.Stats.FallbackCold, qs.Stats.Cold)
		}
		if err := certify(qs, q, q.Lower, q.Upper, got, cov); err != nil {
			return fmt.Errorf("%s: %v", what, err)
		}
		return nil
	}

	// One more row, slack at the optimum.
	taller := p.Clone()
	taller.AddConstraint([]int{0}, []float64{1}, lp.LE, p.Upper[0]+1, "extra")
	if err := try("snapshot with a row too few", taller); err != nil {
		return err
	}

	// A variable strictly inside its bounds is basic; two of them with the
	// same column make p's optimal basis singular.
	var inside []int
	for j, x := range opt.X {
		if x > p.Lower[j]+1e-6 && x < p.Upper[j]-1e-6 {
			inside = append(inside, j)
		}
	}
	if len(inside) < 2 {
		return nil
	}
	a, b := inside[0], inside[1]
	twin := p.Clone()
	twin.Constraints = nil
	for _, c := range p.Constraints {
		var idx []int
		var coef []float64
		for k, j := range c.Idx {
			if j == b {
				continue
			}
			idx, coef = append(idx, j), append(coef, c.Coef[k])
			if j == a {
				idx, coef = append(idx, b), append(coef, c.Coef[k])
			}
		}
		twin.AddConstraint(idx, coef, c.Sense, c.RHS, c.Name)
	}
	cov.singular++
	return try(fmt.Sprintf("snapshot singular after columns %d and %d coincide", a, b), twin)
}

// RandWideLP generates a multiple-choice knapsack relaxation shaped like the
// compact scheduling model and wide enough to be priced from working sets:
// 200-2000 columns over 3-12 rows — pick-at-most-one (now and then
// pick-exactly-one, which needs a phase 1) rows over consecutive groups of
// columns, and one or two knapsack rows across all of them. Values are small
// integers, so ties are everywhere, and some are zero or negative: columns
// that never improve. Most columns are 0-1, a few reach 3. All-zero is
// feasible unless an exactly-one row says otherwise, and then its first
// member at one is. Without an exactly-one row it declares the pick rows as
// its classes.
func RandWideLP(rng *rand.Rand) *lp.Problem {
	n := 200 + rng.Intn(1801)
	knapsacks := 1 + rng.Intn(2)
	groups := 1 + rng.Intn(11-knapsacks)
	if groups+knapsacks < 3 {
		groups = 3 - knapsacks
	}
	p := &lp.Problem{}
	for j := 0; j < n; j++ {
		up := 1.0
		if rng.Intn(16) == 0 {
			up = 3
		}
		p.AddVar(float64(rng.Intn(8)-1), 0, up, fmt.Sprintf("x%d", j))
	}
	all := make([]int, n)
	for j := range all {
		all[j] = j
	}
	classes := groups // none if a pick row is an exactly-one row
	for g := 0; g < groups; g++ {
		lo, hi := g*n/groups, (g+1)*n/groups
		ones := make([]float64, hi-lo)
		for k := range ones {
			ones[k] = 1
		}
		sense := lp.LE
		if rng.Intn(4) == 0 {
			sense, classes = lp.EQ, 0
		}
		p.AddConstraint(all[lo:hi], ones, sense, 1, fmt.Sprintf("pick%d", g))
	}
	p.Classes = classes
	for r := 0; r < knapsacks; r++ {
		w := make([]float64, n)
		for j := range w {
			w[j] = float64(1 + rng.Intn(9))
		}
		// Room for every exactly-one row's first member, and then some.
		p.AddConstraint(all, w, lp.LE, float64(9*groups+rng.Intn(10*groups)), fmt.Sprintf("knap%d", r))
	}
	return p
}

// RandChainLP generates a long-eta-chain instance: a chain of equality rows
// x_j - x_{j-1} == d_j whose artificials force a phase-1 drive-out across
// the whole chain, plus a few coupling inequalities. Basis changes propagate
// down the chain, so the eta file grows past the refactorization threshold
// on modest sizes — the shape that stresses the product-form update
// machinery. Instances are feasible by witness construction.
func RandChainLP(rng *rand.Rand, length int) *lp.Problem {
	if length <= 0 {
		length = 48
	}
	p := &lp.Problem{}
	witness := make([]float64, length)
	w := float64(2 + rng.Intn(3))
	for j := 0; j < length; j++ {
		if j > 0 {
			step := float64(rng.Intn(3) - 1)
			if w+step < 0 || w+step > 7 {
				step = -step
			}
			w += step
		}
		witness[j] = w
		p.AddVar(float64(rng.Intn(7)-3), 0, 8, fmt.Sprintf("x%d", j))
	}
	for j := 1; j < length; j++ {
		p.AddConstraint([]int{j, j - 1}, []float64{1, -1}, lp.EQ, witness[j]-witness[j-1], fmt.Sprintf("chain%d", j))
	}
	// Coupling rows keep phase 2 from being trivial.
	for r := 0; r < 2+rng.Intn(3); r++ {
		nz := 2 + rng.Intn(length/2)
		idx := rng.Perm(length)[:nz]
		coef := make([]float64, nz)
		at := 0.0
		for k, j := range idx {
			coef[k] = float64(1 + rng.Intn(3))
			at += coef[k] * witness[j]
		}
		p.AddConstraint(idx, coef, lp.LE, at+float64(rng.Intn(6)), fmt.Sprintf("couple%d", r))
	}
	return p
}

// RandNearSingularLP generates an instance whose constraint rows come in
// nearly-parallel pairs: the second row of each pair is a scaled copy of the
// first with one coefficient perturbed by a tiny dyadic amount (1/1024, exact
// in floating point). Bases containing both rows' slacks are near-singular,
// which exercises the factorization's partial pivoting, the stale-pivot
// refactorization rescue, and the dual simplex's small-pivot rejection.
// Instances are feasible by witness construction.
func RandNearSingularLP(rng *rand.Rand) *lp.Problem {
	n := 4 + rng.Intn(5)
	p := &lp.Problem{}
	witness := make([]float64, n)
	for j := 0; j < n; j++ {
		witness[j] = float64(rng.Intn(5))
		p.AddVar(float64(rng.Intn(11)-5), 0, 6, fmt.Sprintf("v%d", j))
	}
	pairs := 2 + rng.Intn(3)
	for r := 0; r < pairs; r++ {
		idx, coef := randRow(rng, n)
		at := 0.0
		for k, j := range idx {
			at += coef[k] * witness[j]
		}
		p.AddConstraint(idx, coef, lp.LE, at+float64(rng.Intn(4)), fmt.Sprintf("p%da", r))

		scale := float64(1 + rng.Intn(2))
		twin := make([]float64, len(coef))
		for k := range coef {
			twin[k] = coef[k] * scale
		}
		const tiny = 1.0 / 1024
		twin[rng.Intn(len(twin))] += tiny
		at2 := 0.0
		for k, j := range idx {
			at2 += twin[k] * witness[j]
		}
		if rng.Intn(2) == 0 {
			p.AddConstraint(idx, twin, lp.LE, at2+float64(rng.Intn(3)), fmt.Sprintf("p%db", r))
		} else {
			p.AddConstraint(idx, twin, lp.GE, at2-float64(rng.Intn(3)), fmt.Sprintf("p%db", r))
		}
	}
	return p
}

// RandRedundantEqLP generates a feasible RandLP-shaped instance carrying the
// same equality row twice (the copy doubled). The pair is linearly
// dependent, so phase 1 cannot drive both artificials out: every optimal
// basis keeps one, clamped at zero, and a Basis snapshot of it hands another
// solver an artificial column to seat.
func RandRedundantEqLP(rng *rand.Rand) *lp.Problem {
	n := 3 + rng.Intn(6)
	p := &lp.Problem{}
	witness := make([]float64, n)
	for j := 0; j < n; j++ {
		witness[j] = float64(1 + rng.Intn(4))
		p.AddVar(float64(rng.Intn(11)-5), 0, 6, fmt.Sprintf("v%d", j))
	}
	at := func(idx []int, coef []float64) float64 {
		v := 0.0
		for k, j := range idx {
			v += coef[k] * witness[j]
		}
		return v
	}
	for r := 0; r < 1+rng.Intn(4); r++ {
		idx, coef := randRow(rng, n)
		p.AddConstraint(idx, coef, lp.LE, at(idx, coef)+float64(rng.Intn(4)), fmt.Sprintf("r%d", r))
	}
	idx, coef := randRow(rng, n)
	rhs := at(idx, coef)
	p.AddConstraint(idx, coef, lp.EQ, rhs, "eq")
	twice := make([]float64, len(coef))
	for k := range coef {
		twice[k] = 2 * coef[k]
	}
	p.AddConstraint(idx, twice, lp.EQ, 2*rhs, "eq_twice")
	return p
}
