// Package solvercheck is the differential and property-based verification
// harness for the solver stack (lp → milp → core). The paper's results rest
// on an exact MILP that the original authors solved with CPLEX; this
// repository substitutes a from-scratch simplex and branch-and-bound, and
// that substitution is only credible under systematic cross-checking. The
// package provides deterministic, seeded random-instance generators (bounded
// LPs, pure-binary MILPs, and full scheduling scenarios spanning degenerate
// cases) plus oracle layers: exact certificates for every LP verdict, and
// cross-checks against brute-force enumeration, the compact-vs-full model
// pair, LP-export round trips, analytic optima, and metamorphic properties
// (permutation invariance, threshold monotonicity).
//
// The generators are pure functions of their *rand.Rand, so every failure is
// reproducible from the seed reported in the test output. Coefficients are
// drawn from small dyadic grids (integers and quarters) so that differential
// comparisons are not confounded by floating-point noise.
package solvercheck

import (
	"fmt"
	"math/rand"

	"insitu/internal/core"
	"insitu/internal/lp"
	"insitu/internal/milp"
)

// LPConfig bounds the shape of RandLP instances.
type LPConfig struct {
	// MaxVars caps the variable count (default 8).
	MaxVars int
	// MaxCons caps the constraint count (default 6).
	MaxCons int
}

func (c LPConfig) withDefaults() LPConfig {
	if c.MaxVars <= 0 {
		c.MaxVars = 8
	}
	if c.MaxCons < 0 {
		c.MaxCons = 0
	}
	if c.MaxCons == 0 {
		c.MaxCons = 6
	}
	return c
}

// RandLP generates a bounded LP: every variable has finite bounds, so the
// instance can be Optimal or Infeasible but never Unbounded — which turns
// "status is Unbounded" into an oracle failure rather than an ambiguity.
// Most instances are feasible by construction: constraint right-hand sides
// are placed relative to a random integer witness point inside the bounds,
// with a minority pushed past it to keep the infeasible paths exercised.
func RandLP(rng *rand.Rand, cfg LPConfig) *lp.Problem {
	cfg = cfg.withDefaults()
	n := 1 + rng.Intn(cfg.MaxVars)
	p := &lp.Problem{}
	witness := make([]float64, n)
	for j := 0; j < n; j++ {
		lo := float64(rng.Intn(4))
		span := rng.Intn(9) // span 0 makes a fixed variable, a degenerate case
		up := lo + float64(span)
		p.AddVar(float64(rng.Intn(11)-5), lo, up, fmt.Sprintf("v%d", j))
		witness[j] = lo + float64(rng.Intn(span+1))
	}
	m := rng.Intn(cfg.MaxCons + 1)
	for r := 0; r < m; r++ {
		idx, coef := randRow(rng, n)
		at := 0.0
		for k, j := range idx {
			at += coef[k] * witness[j]
		}
		var sense lp.Sense
		var rhs float64
		switch roll := rng.Intn(100); {
		case roll < 55:
			sense, rhs = lp.LE, at+float64(rng.Intn(5))
		case roll < 70:
			sense, rhs = lp.LE, at-1-float64(rng.Intn(4)) // possibly infeasible
		case roll < 90:
			sense, rhs = lp.GE, at-float64(rng.Intn(5))
		default:
			sense, rhs = lp.EQ, at // exact at the witness: feasible, often degenerate
		}
		p.AddConstraint(idx, coef, sense, rhs, fmt.Sprintf("r%d", r))
	}
	return p
}

// RandDupIndexLP generates one RandLP instance two ways. p hands
// AddConstraint every row as an unsorted (index, coefficient) list in which
// variables recur: a coefficient split over up to three entries, and now and
// then a pair that cancels, leaving a stored zero. dense hands it the same
// list accumulated first, row[j] += coef[k] in list order, as one entry per
// variable. Parts are quarters, so every sum is exact and the two are the
// same model.
func RandDupIndexLP(rng *rand.Rand, cfg LPConfig) (p, dense *lp.Problem) {
	base := RandLP(rng, cfg)
	n := base.NumVars()
	p, dense = base.Clone(), base.Clone()
	p.Constraints, dense.Constraints = nil, nil
	every := make([]int, n)
	for j := range every {
		every[j] = j
	}
	for _, c := range base.Constraints {
		var idx []int
		var coef []float64
		for k, j := range c.Idx {
			rest := c.Coef[k]
			for parts := rng.Intn(3); parts > 0; parts-- {
				part := quarter(rng, 17) - 2
				idx, coef = append(idx, j), append(coef, part)
				rest -= part
			}
			idx, coef = append(idx, j), append(coef, rest)
		}
		if rng.Intn(2) == 0 {
			j, v := rng.Intn(n), 0.25+quarter(rng, 8)
			idx, coef = append(idx, j, j), append(coef, v, -v)
		}
		rng.Shuffle(len(idx), func(a, b int) {
			idx[a], idx[b] = idx[b], idx[a]
			coef[a], coef[b] = coef[b], coef[a]
		})
		row := make([]float64, n)
		for k, j := range idx {
			row[j] += coef[k]
		}
		p.AddConstraint(idx, coef, c.Sense, c.RHS, c.Name)
		dense.AddConstraint(every, row, c.Sense, c.RHS, c.Name)
	}
	return p, dense
}

// MILPConfig bounds the shape of RandBinaryMILP instances.
type MILPConfig struct {
	// MaxBinaries caps the 0-1 variable count (default 9, small enough that
	// milp.BruteForce enumerates every instance).
	MaxBinaries int
	// MaxCons caps the constraint count (default 5).
	MaxCons int
}

func (c MILPConfig) withDefaults() MILPConfig {
	if c.MaxBinaries <= 0 {
		c.MaxBinaries = 9
	}
	if c.MaxCons <= 0 {
		c.MaxCons = 5
	}
	return c
}

// RandBinaryMILP generates a pure-binary MILP shaped like the compact
// scheduling model: knapsack-style rows over 0-1 variables. Objective
// coefficients are integral on half the instances (exercising the
// integral-objective pruning fast path in milp.Solve) and quarter-fractional
// on the rest.
func RandBinaryMILP(rng *rand.Rand, cfg MILPConfig) *milp.Problem {
	cfg = cfg.withDefaults()
	n := 2 + rng.Intn(cfg.MaxBinaries-1)
	p := milp.NewProblem(&lp.Problem{})
	integralObj := rng.Intn(2) == 0
	for j := 0; j < n; j++ {
		obj := float64(rng.Intn(21) - 5)
		if !integralObj {
			obj += 0.25 * float64(rng.Intn(4))
		}
		p.AddBinVar(obj, fmt.Sprintf("b%d", j))
	}
	witness := make([]float64, n)
	for j := range witness {
		witness[j] = float64(rng.Intn(2))
	}
	m := 1 + rng.Intn(cfg.MaxCons)
	for r := 0; r < m; r++ {
		idx, coef := randRow(rng, n)
		at := 0.0
		for k, j := range idx {
			at += coef[k] * witness[j]
		}
		var sense lp.Sense
		var rhs float64
		switch roll := rng.Intn(100); {
		case roll < 60:
			sense, rhs = lp.LE, at+float64(rng.Intn(4))
		case roll < 75:
			sense, rhs = lp.GE, at-float64(rng.Intn(4))
		case roll < 90:
			sense, rhs = lp.EQ, at
		default:
			sense, rhs = lp.LE, at-1-float64(rng.Intn(3)) // possibly infeasible
		}
		p.LP.AddConstraint(idx, coef, sense, rhs, fmt.Sprintf("r%d", r))
	}
	return p
}

// RandMixedMILP turns a RandBinaryMILP instance into a mixed one: about a
// quarter of the binaries become general integers on [0, 3], and one to three
// bounded continuous columns that carry objective enter about half the rows
// each — so the optimum is not on an integer lattice, the rounding heuristic
// has an LP to re-solve, and reduced-cost fixing meets columns it must leave
// alone. The binary instance's witness, with the new columns at zero, still
// satisfies every row it satisfied.
func RandMixedMILP(rng *rand.Rand, cfg MILPConfig) *milp.Problem {
	p := RandBinaryMILP(rng, cfg)
	for j := range p.Integer {
		if rng.Intn(4) == 0 {
			p.LP.Upper[j] = 3
		}
	}
	for k, n := 0, 1+rng.Intn(3); k < n; k++ {
		j := p.AddContVar(quarter(rng, 13)-1, float64(1+rng.Intn(4)), fmt.Sprintf("c%d", k))
		for r := range p.LP.Constraints {
			if c := &p.LP.Constraints[r]; rng.Intn(2) == 0 {
				// The newest column has the highest index, so the row stays ascending.
				c.Idx, c.Coef = append(c.Idx, j), append(c.Coef, float64(1+rng.Intn(4))*float64(1-2*rng.Intn(2)))
			}
		}
	}
	return p
}

// randRow draws a sparse row with 1..n nonzero small-integer coefficients.
func randRow(rng *rand.Rand, n int) ([]int, []float64) {
	nz := 1 + rng.Intn(n)
	perm := rng.Perm(n)[:nz]
	idx := make([]int, 0, nz)
	coef := make([]float64, 0, nz)
	for _, j := range perm {
		c := rng.Intn(9) - 4
		if c == 0 {
			c = 1
		}
		idx = append(idx, j)
		coef = append(coef, float64(c))
	}
	return idx, coef
}

// ScenarioConfig bounds the shape of RandScenario instances.
type ScenarioConfig struct {
	// MaxAnalyses caps the analysis count (default 3).
	MaxAnalyses int
	// MaxSteps caps the simulation step count (default 12). Instances meant
	// for the full time-indexed model should keep this at 6 or below: the
	// full model carries O(analyses x steps) binaries.
	MaxSteps int
}

func (c ScenarioConfig) withDefaults() ScenarioConfig {
	if c.MaxAnalyses <= 0 {
		c.MaxAnalyses = 3
	}
	if c.MaxSteps < 2 {
		c.MaxSteps = 12
	}
	return c
}

// RandScenario generates a full scheduling instance: analysis specs plus a
// resource envelope. The sampler deliberately spikes the degenerate corners
// the paper's constraint system has — zero-cost analyses (only the interval
// constraint binds), time-tight and memory-tight envelopes (thresholds placed
// just around the cost of a random candidate schedule), bandwidth-derived
// output times (ot = om/bw), minimum intervals at 1, at Steps (one analysis
// step possible), and above Steps (the analysis cannot run at all), and
// optional outputs.
func RandScenario(rng *rand.Rand, cfg ScenarioConfig) ([]core.AnalysisSpec, core.Resources) {
	cfg = cfg.withDefaults()
	steps := 2 + rng.Intn(cfg.MaxSteps-1)
	n := 1 + rng.Intn(cfg.MaxAnalyses)

	res := core.Resources{Steps: steps}
	if rng.Intn(2) == 0 {
		// Powers of two keep om/bw divisions exact in both models.
		res.Bandwidth = float64(int64(1) << (18 + rng.Intn(6)))
	}

	const mib = int64(1) << 20
	specs := make([]core.AnalysisSpec, n)
	totalCost := 0.0 // cost of a random candidate schedule, for threshold placement
	var totalMem int64
	for i := range specs {
		a := core.AnalysisSpec{Name: fmt.Sprintf("a%d", i)}
		zeroCost := rng.Intn(4) == 0
		if !zeroCost {
			a.CT = quarter(rng, 12)
			if rng.Intn(2) == 0 {
				a.OT = quarter(rng, 8)
			}
			if rng.Intn(4) == 0 {
				a.FT = quarter(rng, 4)
			}
			if rng.Intn(5) == 0 {
				a.IT = quarter(rng, 2)
			}
		}
		if rng.Intn(3) > 0 {
			a.FM = int64(rng.Intn(8)) * mib
			a.CM = int64(rng.Intn(8)) * mib
			a.OM = int64(rng.Intn(8)) * mib
		}
		if rng.Intn(4) == 0 {
			a.IM = int64(rng.Intn(3)) * mib
		}
		switch rng.Intn(8) {
		case 0:
			a.MinInterval = steps // exactly one analysis step fits
		case 1:
			a.MinInterval = steps + 1 + rng.Intn(2) // no analysis step fits
		case 2, 3:
			a.MinInterval = 2 + rng.Intn(3)
		default:
			a.MinInterval = 1
		}
		a.Weight = []float64{1, 1, 1, 0.5, 1.5, 2, 2.5}[rng.Intn(7)]
		a.OutputOptional = rng.Intn(4) == 0
		specs[i] = a

		// Candidate schedule: a random count within the interval bound with a
		// random output stride, costed with the same formulas the models use.
		if bound := steps / a.MinInterval; bound > 0 {
			count := 1 + rng.Intn(bound)
			outputs := 1 + rng.Intn(count)
			ot := a.OT
			if ot == 0 && a.OM > 0 && res.Bandwidth > 0 {
				ot = float64(a.OM) / res.Bandwidth
			}
			totalCost += a.FT + a.IT*float64(steps) + a.CT*float64(count) + ot*float64(outputs)
		}
		totalMem += a.FM + int64(steps)*a.IM + a.CM + a.OM
	}

	switch rng.Intn(4) {
	case 0:
		// Unconstrained time: only intervals and memory bind.
	case 1:
		res.TimeThreshold = totalCost + quarter(rng, 16) // loose
	default:
		res.TimeThreshold = quarter(rng, 4) + totalCost*[]float64{0.25, 0.5, 0.75, 1}[rng.Intn(4)] // tight
	}
	if rng.Intn(5) > 1 && totalMem > 0 {
		frac := []int64{1, 2, 3, 4}[rng.Intn(4)]
		res.MemThreshold = totalMem * frac / 4
		if res.MemThreshold == 0 {
			res.MemThreshold = mib
		}
	}
	return specs, res
}

// ScaledScenario generates the badly scaled scheduling family: memory at GiB
// scale against compute and output times of microseconds, so the compact
// model's memory row reads ~2^31–2^34 beside a time row of ~10^-3. The
// analyses are near-equal — a shared footprint of one or two GiB plus a few
// MiB each, integer weights — under a memory threshold that fits about half of
// them: the tight knapsack of arXiv:2202.08704. Every memory figure is a
// whole number of MiB, so an instance can be restated in MiB exactly, and
// times are whole multiples of 2^-20 s, so the certificate's exact arithmetic
// meets the ties the data states (with decimal microseconds it can find a
// reduced cost of 1e-15 that no float simplex sees).
func ScaledScenario(rng *rand.Rand, cfg ScenarioConfig) ([]core.AnalysisSpec, core.Resources) {
	cfg = cfg.withDefaults()
	steps := 2 + rng.Intn(cfg.MaxSteps-1)
	n := 1 + rng.Intn(cfg.MaxAnalyses)
	const mib, us = int64(1) << 20, 1.0 / (1 << 20) // a "microsecond" of 2^-20 s
	base := int64(1+rng.Intn(2)) << 30
	specs := make([]core.AnalysisSpec, n)
	var footprint int64
	busy := 0.0 // every analysis at its densest, in seconds
	for i := range specs {
		a := core.AnalysisSpec{
			Name:        fmt.Sprintf("s%d", i),
			CT:          float64(1+rng.Intn(64)) * us,
			OT:          float64(rng.Intn(16)) * us,
			FM:          base + int64(rng.Intn(8))*mib,
			CM:          int64(rng.Intn(4)) * mib,
			OM:          int64(rng.Intn(4)) * mib,
			Weight:      float64(1 + rng.Intn(2)),
			MinInterval: 1 + rng.Intn(3),
		}
		specs[i] = a
		footprint += a.FM + a.CM + a.OM
		busy += (a.CT + a.OT) * float64(steps/a.MinInterval)
	}
	res := core.Resources{Steps: steps, MemThreshold: footprint / 2 / mib * mib}
	if rng.Intn(2) == 0 {
		res.TimeThreshold = busy / 2
	}
	return specs, res
}

// SparseCampaign is the synthetic campaign family behind the sparse benchmark
// pools and perfbench's large-sparse and off-pool workloads: n analyses with
// coarse minimum intervals whose compact model under a mode cap of 4 is a
// wide, sparse 0-1 program (about ten columns and one row per analysis, three
// nonzeros per column), with a time budget that scales with n. Integer
// weights keep the objective integral, so branch and bound can use its
// incumbent+1 pruning; fractional weights create a plateau of equal-value
// schedules that explodes the node count. sub seeds the instance.
func SparseCampaign(sub int64, n int) ([]core.AnalysisSpec, core.Resources) {
	rng := rand.New(rand.NewSource(sub))
	specs := make([]core.AnalysisSpec, n)
	for i := range specs {
		specs[i] = core.AnalysisSpec{
			Name:        fmt.Sprintf("a%03d", i),
			CT:          0.25 + 0.25*float64(rng.Intn(12)),
			OT:          0.25 * float64(rng.Intn(4)),
			FM:          int64(rng.Intn(64)) << 20,
			CM:          int64(rng.Intn(64)) << 20,
			OM:          int64(rng.Intn(64)) << 20,
			Weight:      []float64{1, 1, 2, 3}[rng.Intn(4)],
			MinInterval: []int{50, 100, 200, 250}[rng.Intn(4)],
		}
	}
	return specs, core.Resources{Steps: 1000, TimeThreshold: 600 * float64(n) / 220, MemThreshold: 12 << 30}
}

// quarter draws a non-negative multiple of 0.25 below n/4.
func quarter(rng *rand.Rand, n int) float64 {
	return 0.25 * float64(rng.Intn(n))
}
