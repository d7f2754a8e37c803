package core

import (
	"fmt"

	"insitu/internal/lp"
	"insitu/internal/milp"
)

// This file keeps the row detector lp's crash ran over every solver state
// before the models declared their classes (lp.Problem.Classes), as the
// reference TestDeclaredShapeMatchesDetector holds the declarations to.

// detectShape classifies the rows the way the detector did: every row "<="
// with nonnegative coefficients, the unit rows with RHS 1 (gub) over
// disjoint columns, the others (knap) with RHS > 0, and at least one of
// each. On any other shape it returns nothing.
func detectShape(p *lp.Problem) (gub, knap []int) {
	inClass := make([]bool, p.NumVars())
	for i, c := range p.Constraints {
		unit := c.RHS == 1
		for _, v := range c.Coef {
			if v < 0 {
				return nil, nil
			}
			unit = unit && v == 1
		}
		if c.Sense != lp.LE || !unit && c.RHS <= 0 {
			return nil, nil
		}
		if !unit {
			knap = append(knap, i)
			continue
		}
		for _, j := range c.Idx {
			if inClass[j] {
				return nil, nil
			}
			inClass[j] = true
		}
		gub = append(gub, i)
	}
	if len(knap) == 0 || len(gub) == 0 {
		return nil, nil
	}
	return gub, knap
}

// checkDeclaredShape reports where p's declaration starts the crash
// elsewhere than the detector did: the crash runs on a declaration of at
// least one class and at least one knapsack row, over the leading rows it
// declares.
func checkDeclaredShape(p *lp.Problem) error {
	gub, _ := detectShape(p)
	for k, g := range gub {
		if g != k {
			return fmt.Errorf("the detector's classes %v are not the leading rows", gub)
		}
	}
	crashed := p.Classes
	if crashed == len(p.Constraints) {
		crashed = 0 // no knapsack row: the crash declines
	}
	if crashed != len(gub) {
		return fmt.Errorf("%d classes declared over %d rows; the detector found %d", p.Classes, len(p.Constraints), len(gub))
	}
	return nil
}

// CheckDeclaredShape holds the compact model Solve builds (force -1), or
// Explain's probe forcing analysis force on, to the detector. Exported for
// identity_test.go, with the two below.
func CheckDeclaredShape(specs []AnalysisSpec, res Resources, opts SolveOptions, force int) error {
	m, err := buildCompactProblem(specs, res, opts, force)
	if err != nil {
		return err
	}
	defer modelPool.Put(m)
	return checkDeclaredShape(&m.lp)
}

// CheckPlacementShape holds the model SolvePlacement builds to the detector.
func CheckPlacementShape(specs []PlacementSpec, res PlacementResources) error {
	_, prob, _, err := buildPlacementProblem(specs, res, SolveOptions{})
	if err != nil {
		return err
	}
	return checkDeclaredShape(prob.LP)
}

// CheckFullShape holds the time-indexed model SolveFull builds to the
// detector.
func CheckFullShape(specs []AnalysisSpec, res Resources) error {
	norm, err := normalizeSpecs(specs)
	if err != nil {
		return err
	}
	prob, _, _ := buildFullProblem(norm, res)
	return checkDeclaredShape(prob.LP)
}

// PresolveTightened solves the compact model CheckDeclaredShape builds for
// the same arguments and returns the root bound reductions of its presolve.
func PresolveTightened(specs []AnalysisSpec, res Resources, opts SolveOptions, force int) (int, error) {
	m, err := buildCompactProblem(specs, res, opts, force)
	if err != nil {
		return 0, err
	}
	defer modelPool.Put(m)
	sol, err := milp.Solve(&m.prob, milp.Options{})
	if err != nil {
		return 0, err
	}
	return sol.Stats.PresolveTightened, nil
}
