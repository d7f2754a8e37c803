package milp

import (
	"math"

	"insitu/internal/lp"
)

// RepairOracle is the rounding heuristic's floor-all of x on the pure-integer
// model p, and the point the class-wise repair makes of it, for package
// milp_test, whose tests draw models from solvercheck's generators
// (solvercheck imports milp, so package milp's own tests cannot).
func RepairOracle(p *Problem, x []float64) (floor, repaired []float64) {
	floor = make([]float64, len(x))
	for j, v := range x {
		lo, hi := math.Ceil(p.LP.Lower[j]), math.Floor(p.LP.Upper[j])
		floor[j] = min(max(math.Floor(v+lp.IntTol), lo), hi)
	}
	var h heurCtx
	h.init(p, nil)
	repaired = append([]float64(nil), floor...)
	h.rep.run(p, repaired)
	return floor, repaired
}
