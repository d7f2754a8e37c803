package solvercheck

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"insitu/internal/core"
	"insitu/internal/lp"
	"insitu/internal/milp"
)

// objTol is the absolute/relative tolerance for objective comparisons. The
// generators draw coefficients from dyadic grids, so genuine solver
// disagreements show up far above this level.
const objTol = 1e-6

func objClose(a, b float64) bool {
	return math.Abs(a-b) <= objTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// CheckLP runs the LP oracle suite on one instance: the verdict's exact
// certificate (finite-bound instances are never Unbounded), and metamorphic
// invariance of the optimal value under variable permutation and positive row
// scaling. The rng drives the metamorphic transforms; failures are reported
// as errors naming the violated property.
func CheckLP(rng *rand.Rand, p *lp.Problem) error {
	s, err := lp.NewSolver(p)
	if err != nil {
		return fmt.Errorf("lp.NewSolver: %v", err)
	}
	sol := s.SolveCold(p.Lower, p.Upper)
	if err := certify(s, p, p.Lower, p.Upper, sol, &revisedCoverage{}); err != nil {
		return err
	}

	// Permutation invariance: relabeling variables must not move the optimum.
	perm := rng.Perm(p.NumVars())
	psol, err := lp.Solve(permuteLP(p, perm))
	if err != nil {
		return fmt.Errorf("lp.Solve(permuted): %v", err)
	}
	if psol.Status != sol.Status {
		return fmt.Errorf("permutation changed status %v -> %v", sol.Status, psol.Status)
	}
	if sol.Status == lp.Optimal && !objClose(psol.Objective, sol.Objective) {
		return fmt.Errorf("permutation changed objective %g -> %g", sol.Objective, psol.Objective)
	}

	// Row scaling: multiplying a constraint and its RHS by a positive power
	// of two (exact in floating point) describes the same polytope. A class
	// row scaled is no longer a unit "<= 1" row, so the copy declares none.
	scaled := p.Clone()
	scaled.Classes = 0
	for r := range scaled.Constraints {
		f := []float64{0.5, 2, 4}[rng.Intn(3)]
		for j := range scaled.Constraints[r].Coef {
			scaled.Constraints[r].Coef[j] *= f
		}
		scaled.Constraints[r].RHS *= f
	}
	ssol, err := lp.Solve(scaled)
	if err != nil {
		return fmt.Errorf("lp.Solve(scaled): %v", err)
	}
	if ssol.Status != sol.Status {
		return fmt.Errorf("row scaling changed status %v -> %v", sol.Status, ssol.Status)
	}
	if sol.Status == lp.Optimal && !objClose(ssol.Objective, sol.Objective) {
		return fmt.Errorf("row scaling changed objective %g -> %g", sol.Objective, ssol.Objective)
	}
	return nil
}

// CheckMILP runs the MILP oracle suite on one instance: branch-and-bound vs
// exhaustive enumeration (status and objective must agree exactly, size-gated
// on milp.BruteForce's typed refusal), integrality and feasibility of the
// incumbent, the LP relaxation as an upper bound, the contract of a search
// that stops early at a node limit against the enumerated optimum,
// cross-width search agreement at Workers=8, permutation
// invariance, and a WriteLP -> ReadLP -> Solve round trip.
func CheckMILP(rng *rand.Rand, p *milp.Problem) error {
	return checkMILP(rng, p, &milpCoverage{})
}

// milpCoverage counts how often checkMILP reached the paths that only some
// instances have, so the corpus tests can pin that they are exercised at all.
type milpCoverage struct {
	fixed       int // default searches that fixed a column by reduced cost
	nodeLimited int // searches a two-node budget actually cut short
}

func checkMILP(rng *rand.Rand, p *milp.Problem, cov *milpCoverage) error {
	sol, err := milp.Solve(p, milp.Options{})
	if err != nil {
		return fmt.Errorf("milp.Solve: %v", err)
	}
	switch sol.Status {
	case milp.Optimal:
		if viol := p.LP.FirstViolation(sol.X, lp.RowTol); viol != "" {
			return fmt.Errorf("incumbent infeasible: %s", viol)
		}
		for j, isInt := range p.Integer {
			if isInt && math.Abs(sol.X[j]-math.Round(sol.X[j])) > 1e-6 {
				t := sol.X[j]
				return fmt.Errorf("integer variable %d = %g not integral", j, t)
			}
		}
		if got := p.LP.Eval(sol.X); !objClose(got, sol.Objective) {
			return fmt.Errorf("objective %g disagrees with c·x = %g", sol.Objective, got)
		}
		relax, err := lp.Solve(p.LP)
		if err != nil {
			return fmt.Errorf("lp.Solve(relaxation): %v", err)
		}
		if relax.Status == lp.Optimal && relax.Objective < sol.Objective-objTol {
			return fmt.Errorf("LP relaxation bound %g below MILP objective %g", relax.Objective, sol.Objective)
		}
	case milp.Unbounded:
		return fmt.Errorf("bounded-variable instance reported Unbounded")
	case milp.NodeLimit:
		return fmt.Errorf("node limit on a %d-var instance", p.LP.NumVars())
	}

	brute, err := milp.BruteForce(p)
	var tooLarge *milp.TooLargeError
	if errors.As(err, &tooLarge) {
		// Size gate: enumeration refused, the remaining oracles stand alone.
		brute = nil
	} else if err != nil {
		return fmt.Errorf("milp.BruteForce: %v", err)
	}
	if brute != nil {
		if brute.Status != sol.Status {
			return fmt.Errorf("brute force status %v, branch-and-bound %v", brute.Status, sol.Status)
		}
		if sol.Status == milp.Optimal && !objClose(brute.Objective, sol.Objective) {
			return fmt.Errorf("brute force objective %g, branch-and-bound %g", brute.Objective, sol.Objective)
		}
	}
	if sol.Stats.ReducedCostFixed > 0 {
		cov.fixed++
	}
	if brute != nil && brute.Status == milp.Optimal {
		if err := checkEarlyStops(p, brute.Objective, cov); err != nil {
			return err
		}
	}

	// Cross-width contract: a wave of eight must reproduce the wave of one's
	// status, objective, and terminal bound.
	wsol, err := milp.Solve(p, milp.Options{Workers: 8})
	if err != nil {
		return fmt.Errorf("milp.Solve(workers=8): %v", err)
	}
	if wsol.Status != sol.Status {
		return fmt.Errorf("workers=8 changed status %v -> %v", sol.Status, wsol.Status)
	}
	if sol.Status == milp.Optimal {
		if !objClose(wsol.Objective, sol.Objective) {
			return fmt.Errorf("workers=8 changed objective %g -> %g", sol.Objective, wsol.Objective)
		}
		if !objClose(wsol.Stats.BestBound, sol.Stats.BestBound) {
			return fmt.Errorf("workers=8 changed bound %g -> %g", sol.Stats.BestBound, wsol.Stats.BestBound)
		}
	}

	perm := rng.Perm(p.LP.NumVars())
	psol, err := milp.Solve(permuteMILP(p, perm), milp.Options{})
	if err != nil {
		return fmt.Errorf("milp.Solve(permuted): %v", err)
	}
	if psol.Status != sol.Status {
		return fmt.Errorf("permutation changed status %v -> %v", sol.Status, psol.Status)
	}
	if sol.Status == milp.Optimal && !objClose(psol.Objective, sol.Objective) {
		return fmt.Errorf("permutation changed objective %g -> %g", sol.Objective, psol.Objective)
	}

	return checkMILPRoundTrip(p, sol)
}

// checkEarlyStops solves p once more under a two-node budget and holds the
// answer to its contract against the enumerated optimum: whatever the search
// cut off — by pruning or by fixing columns on reduced cost, which share one
// cut-off — a node-limited search reports a bound no lower than it.
func checkEarlyStops(p *milp.Problem, optimum float64, cov *milpCoverage) error {
	nsol, err := milp.Solve(p, milp.Options{MaxNodes: 2})
	if err != nil {
		return fmt.Errorf("milp.Solve(2 nodes): %v", err)
	}
	switch nsol.Status {
	case milp.NodeLimit:
		cov.nodeLimited++
	case milp.Optimal:
	default:
		return fmt.Errorf("2-node budget changed status to %v", nsol.Status)
	}
	if nsol.Stats.BestBound < optimum-objTol {
		return fmt.Errorf("2-node search reports bound %g below the optimum %g", nsol.Stats.BestBound, optimum)
	}
	if nsol.HasX {
		if viol := p.LP.FirstViolation(nsol.X, lp.RowTol); viol != "" {
			return fmt.Errorf("2-node incumbent infeasible: %s", viol)
		}
		if nsol.Objective > optimum+objTol {
			return fmt.Errorf("2-node incumbent %g above the optimum %g", nsol.Objective, optimum)
		}
	}
	return nil
}

// checkMILPRoundTrip serializes the model in LP format, reparses it, and
// asserts the re-solved optimum matches.
func checkMILPRoundTrip(p *milp.Problem, sol *milp.Solution) error {
	var buf bytes.Buffer
	if err := milp.WriteLP(&buf, p); err != nil {
		return fmt.Errorf("WriteLP: %v", err)
	}
	q, err := milp.ReadLP(&buf)
	if err != nil {
		return fmt.Errorf("ReadLP: %v", err)
	}
	if q.LP.Classes != p.LP.Classes {
		return fmt.Errorf("LP round trip changed the classes %d -> %d", p.LP.Classes, q.LP.Classes)
	}
	rsol, err := milp.Solve(q, milp.Options{})
	if err != nil {
		return fmt.Errorf("milp.Solve(reparsed): %v", err)
	}
	if rsol.Status != sol.Status {
		return fmt.Errorf("LP round trip changed status %v -> %v", sol.Status, rsol.Status)
	}
	if sol.Status == milp.Optimal && !objClose(rsol.Objective, sol.Objective) {
		return fmt.Errorf("LP round trip changed objective %g -> %g", sol.Objective, rsol.Objective)
	}
	return nil
}

// ScenarioChecks selects which oracles CheckScenario runs.
type ScenarioChecks struct {
	// BruteForce cross-checks core.Solve against core.BruteForceSolve (the
	// exact mode-space enumeration under per-step memory).
	BruteForce bool
	// FullModel cross-checks against core.SolveFull, the paper's verbatim
	// time-indexed formulation. Exponential in analyses x steps; keep the
	// scenario small.
	FullModel bool
}

// CheckScenario runs the scheduling-level oracle suite on one instance.
//
// Ordering invariants between the three formulations: the compact model's
// memory row (sum of per-analysis peaks) over-approximates the exact per-step
// memory, so
//
//	compact <= mode brute force <= full model
//
// with all three equal when the memory threshold is absent. Under an
// unconstrained envelope the optimum has the closed form
// Σ (1 + w_i·⌊Steps/itv_i⌋) over analyses that fit at all, checked exactly.
// Metamorphic properties: spec-order permutation invariance, objective
// monotonicity in cth and mth relaxation, and schedule feasibility under
// core's recurrence validation. The LP-export round trip re-solves
// core.ExportLP output through milp.ReadLP and compares optima.
func CheckScenario(rng *rand.Rand, specs []core.AnalysisSpec, res core.Resources, checks ScenarioChecks) error {
	rec, err := core.Solve(specs, res, core.SolveOptions{})
	if err != nil {
		return fmt.Errorf("core.Solve: %v", err)
	}
	if err := rec.Validate(specs, res); err != nil {
		return fmt.Errorf("compact schedule fails recurrence validation: %v", err)
	}

	// Analytic optimum under an unconstrained envelope.
	if res.TimeThreshold == 0 && res.MemThreshold == 0 {
		want := 0.0
		for _, a := range specs {
			itv := a.MinInterval
			if itv < 1 {
				itv = 1
			}
			w := a.Weight
			if w == 0 {
				w = 1
			}
			if bound := res.Steps / itv; bound > 0 {
				want += 1 + w*float64(bound)
			}
		}
		if !objClose(rec.Objective, want) {
			return fmt.Errorf("unconstrained objective %g, analytic optimum %g", rec.Objective, want)
		}
	}

	if checks.BruteForce {
		brute, err := core.BruteForceSolve(specs, res)
		if err != nil {
			return fmt.Errorf("core.BruteForceSolve: %v", err)
		}
		if err := brute.Validate(specs, res); err != nil {
			return fmt.Errorf("brute-force schedule fails recurrence validation: %v", err)
		}
		if rec.Objective > brute.Objective+objTol {
			return fmt.Errorf("compact objective %g above exact mode optimum %g", rec.Objective, brute.Objective)
		}
		if res.MemThreshold == 0 && !objClose(rec.Objective, brute.Objective) {
			return fmt.Errorf("memory-unconstrained compact objective %g, exact mode optimum %g", rec.Objective, brute.Objective)
		}
	}

	if checks.FullModel {
		full, err := core.SolveFull(specs, res, core.SolveOptions{})
		if err != nil {
			return fmt.Errorf("core.SolveFull: %v", err)
		}
		if err := full.Validate(specs, res); err != nil {
			return fmt.Errorf("full-model schedule fails recurrence validation: %v", err)
		}
		if full.Stats.BestBound > full.Objective+objTol {
			// A node-limited incumbent is not a ground truth; the instance is
			// too large for the full-model oracle.
			return fmt.Errorf("full model not proven optimal (bound %g > objective %g): shrink the scenario",
				full.Stats.BestBound, full.Objective)
		}
		if rec.Objective > full.Objective+objTol {
			return fmt.Errorf("compact objective %g above full-model optimum %g", rec.Objective, full.Objective)
		}
		if res.MemThreshold == 0 && !objClose(rec.Objective, full.Objective) {
			return fmt.Errorf("memory-unconstrained compact objective %g, full-model optimum %g", rec.Objective, full.Objective)
		}
	}

	// Permutation invariance: reordering the spec list relabels binaries in
	// the compact model and must not move the optimum.
	perm := rng.Perm(len(specs))
	shuffled := make([]core.AnalysisSpec, len(specs))
	for i, j := range perm {
		shuffled[i] = specs[j]
	}
	prec, err := core.Solve(shuffled, res, core.SolveOptions{})
	if err != nil {
		return fmt.Errorf("core.Solve(permuted): %v", err)
	}
	if !objClose(prec.Objective, rec.Objective) {
		return fmt.Errorf("spec permutation changed objective %g -> %g", rec.Objective, prec.Objective)
	}

	// Monotonicity: relaxing cth or mth can only improve the objective.
	if res.TimeThreshold > 0 {
		loose := res
		loose.TimeThreshold *= 1.5
		lrec, err := core.Solve(specs, loose, core.SolveOptions{})
		if err != nil {
			return fmt.Errorf("core.Solve(relaxed cth): %v", err)
		}
		if lrec.Objective < rec.Objective-objTol {
			return fmt.Errorf("relaxing cth %g -> %g dropped objective %g -> %g",
				res.TimeThreshold, loose.TimeThreshold, rec.Objective, lrec.Objective)
		}
	}
	if res.MemThreshold > 0 {
		loose := res
		loose.MemThreshold *= 2
		lrec, err := core.Solve(specs, loose, core.SolveOptions{})
		if err != nil {
			return fmt.Errorf("core.Solve(relaxed mth): %v", err)
		}
		if lrec.Objective < rec.Objective-objTol {
			return fmt.Errorf("relaxing mth %d -> %d dropped objective %g -> %g",
				res.MemThreshold, loose.MemThreshold, rec.Objective, lrec.Objective)
		}
	}

	// LP-export round trip: the exported compact model, reparsed and
	// re-solved, must reach the same optimum the recommendation reports.
	var buf bytes.Buffer
	if err := core.ExportLP(&buf, specs, res, core.SolveOptions{}); err != nil {
		return fmt.Errorf("core.ExportLP: %v", err)
	}
	q, err := milp.ReadLP(&buf)
	if err != nil {
		return fmt.Errorf("ReadLP(exported): %v", err)
	}
	rsol, err := milp.Solve(q, milp.Options{})
	if err != nil {
		return fmt.Errorf("milp.Solve(exported): %v", err)
	}
	if rsol.Status != milp.Optimal {
		return fmt.Errorf("exported model solved to %v, want optimal", rsol.Status)
	}
	if !objClose(rsol.Objective, rec.Objective) {
		return fmt.Errorf("exported model optimum %g, recommendation objective %g", rsol.Objective, rec.Objective)
	}
	return nil
}

// permuteLP relabels variables: column j of p becomes column perm[j].
func permuteLP(p *lp.Problem, perm []int) *lp.Problem {
	n := p.NumVars()
	q := &lp.Problem{
		Objective: make([]float64, n),
		Lower:     make([]float64, n),
		Upper:     make([]float64, n),
		Names:     make([]string, n),
		Classes:   p.Classes,
	}
	for j := 0; j < n; j++ {
		q.Objective[perm[j]] = p.Objective[j]
		q.Lower[perm[j]] = p.Lower[j]
		q.Upper[perm[j]] = p.Upper[j]
		q.Names[perm[j]] = p.Names[j]
	}
	for _, c := range p.Constraints {
		idx := make([]int, len(c.Idx))
		for k, j := range c.Idx {
			idx[k] = perm[j]
		}
		q.AddConstraint(idx, c.Coef, c.Sense, c.RHS, c.Name)
	}
	return q
}

// permuteMILP relabels variables of a MILP, carrying integrality markers.
func permuteMILP(p *milp.Problem, perm []int) *milp.Problem {
	q := &milp.Problem{LP: permuteLP(p.LP, perm), Integer: make([]bool, len(p.Integer))}
	for j, isInt := range p.Integer {
		q.Integer[perm[j]] = isInt
	}
	return q
}
