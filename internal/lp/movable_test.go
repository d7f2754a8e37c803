package lp

import (
	"fmt"
	"math/rand"
)

// Movable-list oracle. The dual ratio test, refill and Bland's rule walk mov
// instead of every column, which is exact only while mov holds precisely the
// columns a full canMove scan would keep, in the order the scan meets them.
// movableAgrees is that scan; movableOracle runs it after every basis change
// and every rebuild of the list.

// movableAgrees reports the first difference between mov and a fresh
// ascending canMove scan of every column.
func movableAgrees(rv *revised) error {
	k := 0
	for j := 0; j < rv.width; j++ {
		if !rv.canMove(j) {
			continue
		}
		if k >= len(rv.mov) || int(rv.mov[k]) != j {
			return fmt.Errorf("movable column %d missing from the list %v", j, rv.mov)
		}
		k++
	}
	if k != len(rv.mov) {
		return fmt.Errorf("list %v holds %d columns past the %d movable ones", rv.mov, len(rv.mov)-k, k)
	}
	return nil
}

// movableCounts tallies what a movableOracle run exercised.
type movableCounts struct {
	Checks           int // list checks: basis changes, rebuilds and solve ends
	DualPivots       int
	PrimalPivots     int
	MidDualRefactors int // dual pivots made after a refactorization inside the same dual run
	ArtificialColds  int // cold solves that ran a phase 1 (then driveOutArtificials)
	Installs         int // warm solves from a snapshot taken at an earlier step
	Fallbacks        int // warm attempts from a fitting basis that failed and fell back cold
}

// movableOracle drives one Solver of p the way branch and bound does — a cold
// solve, then warm re-solves under random bound changes that fix, unfix and
// split columns, some from a basis snapshot taken steps earlier, some with a
// refactorization due after their first pivot, and one from
// a snapshot with a column basic twice, which cannot be installed and falls
// back cold — and holds the movable list to movableAgrees after every basis
// change, every rebuild and every solve.
func movableOracle(rng *rand.Rand, p *Problem) (movableCounts, error) {
	var c movableCounts
	s, err := NewSolver(p)
	if err != nil {
		return c, err
	}
	rv := s.state()
	var failure error
	check := func(where string) {
		c.Checks++
		if err := movableAgrees(rv); err != nil && failure == nil {
			failure = fmt.Errorf("%s (check %d): %v", where, c.Checks, err)
		}
	}
	// The hook runs at applyBounds' rebuild, after any install has
	// refactorized, so a refactorization seen first at a dual pivot happened
	// inside the dual run.
	refactorsSeen, dualSeen := 0, 0
	rv.onPivot = func() {
		check("pivot or rebuild")
		if rv.stats.DualPivots > dualSeen && rv.stats.Refactorizations > refactorsSeen {
			c.MidDualRefactors++
		}
		refactorsSeen, dualSeen = rv.stats.Refactorizations, rv.stats.DualPivots
	}
	lower := append([]float64(nil), p.Lower...)
	upper := append([]float64(nil), p.Upper...)
	var snaps []*Basis
	for step := 0; step < 16; step++ {
		fallbacks := s.Stats.FallbackCold
		var from *Basis
		forced := step == 8 && len(snaps) > 0 && rv.m > 1
		switch {
		case forced:
			bad := *snaps[0]
			bad.cols = append([]int32(nil), bad.cols...)
			bad.cols[1] = bad.cols[0]
			from = &bad
		case len(snaps) > 0 && rng.Intn(3) == 0:
			from = snaps[rng.Intn(len(snaps))]
			c.Installs++
		}
		if from == nil && step%2 == 1 {
			// Schedule a refactorization for the iteration after the next
			// eta: between the first two dual pivots of a longer run.
			rv.lastFact = rv.ef.count() - refactorEvery
		}
		_, warm := s.SolveFrom(from, lower, upper)
		check(fmt.Sprintf("end of solve %d", step))
		if failure != nil {
			return c, failure
		}
		if !forced {
			c.Fallbacks += s.Stats.FallbackCold - fallbacks
		} else if s.Stats.FallbackCold == fallbacks {
			return c, fmt.Errorf("solve %d: a basis with a column basic twice was installed", step)
		}
		if !warm {
			for _, used := range rv.artUsed {
				if used {
					c.ArtificialColds++
					break
				}
			}
		}
		if b := s.Basis(); b != nil {
			snaps = append(snaps, b)
		}
		perturbBounds(rng, p, lower, upper)
	}
	c.DualPivots, c.PrimalPivots = s.Stats.DualPivots, s.Stats.PrimalPivots
	return c, nil
}
