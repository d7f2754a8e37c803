package core

import (
	"fmt"
	"io"

	"insitu/internal/lp"
	"insitu/internal/milp"
)

// SolveFull solves the paper's time-indexed formulation verbatim (equations
// 1–9): binaries analysis[i,j] and output[i,j] per analysis per simulation
// step plus an enabled[i] membership binary, continuous mStart/mEnd chains
// with big-M linearized output resets, the aggregate time row, the per-step
// memory rows, and sliding-window interval rows. The model has O(|A|·Steps)
// binaries, so it is practical only for small step counts; its role is to
// validate the compact model and to produce irregular (non-evenly-spaced)
// schedules when the memory constraint makes those optimal.
func SolveFull(specs []AnalysisSpec, res Resources, opts SolveOptions) (*Recommendation, error) {
	if err := res.Validate(); err != nil {
		return nil, err
	}
	norm, err := normalizeSpecs(specs)
	if err != nil {
		return nil, err
	}
	prob, aVar, oVar := buildFullProblem(norm, res)
	sol, elapsed, err := solveModel("full model", prob, opts)
	if err != nil {
		return nil, err
	}

	S := res.Steps
	rec := &Recommendation{SolveTime: elapsed, Stats: sol.Stats}
	for i, a := range norm {
		var as, os []int
		for j := 1; j <= S; j++ {
			if sol.X[aVar[i][j]] > 0.5 {
				as = append(as, j)
			}
			if sol.X[oVar[i][j]] > 0.5 {
				os = append(os, j)
			}
		}
		if len(as) == 0 {
			rec.Schedules = append(rec.Schedules, AnalysisSchedule{Name: a.Name})
			continue
		}
		s := AnalysisSchedule{
			Name:          a.Name,
			Enabled:       true,
			Count:         len(as),
			Outputs:       len(os),
			AnalysisSteps: as,
			OutputSteps:   os,
			PredictedTime: modeCost(a, res, len(as), len(os)),
			PeakMemory:    modePeakMemory(a, S, as, os),
		}
		if len(os) > 0 {
			s.OutputEvery = (len(as) + len(os) - 1) / len(os)
		}
		rec.Schedules = append(rec.Schedules, s)
		rec.Objective += 1 + a.Weight*float64(len(as))
		rec.TotalTime += s.PredictedTime
	}
	return rec.validated("full", specs, res)
}

// ExportFullLP writes the time-indexed formulation (equations 1-9) in CPLEX
// LP format — the verbatim counterpart of the paper's GAMS model.
func ExportFullLP(w io.Writer, specs []AnalysisSpec, res Resources) error {
	if err := res.Validate(); err != nil {
		return err
	}
	norm, err := normalizeSpecs(specs)
	if err != nil {
		return err
	}
	prob, _, _ := buildFullProblem(norm, res)
	return milp.WriteLP(w, prob)
}

// buildFullProblem constructs the time-indexed MILP and returns it with the
// analysis/output binary indices per analysis per step (1-based).
func buildFullProblem(norm []AnalysisSpec, res Resources) (*milp.Problem, [][]int, [][]int) {
	S := res.Steps
	const memScale = 1.0 / (1 << 20) // model memory in MiB for conditioning

	prob := milp.NewProblem(&lp.Problem{})
	nA := len(norm)
	enabled := make([]int, nA)
	aVar := make([][]int, nA)   // analysis binaries, 1-based step index
	oVar := make([][]int, nA)   // output binaries
	mStart := make([][]int, nA) // continuous
	mEnd := make([][]int, nA)

	for i, a := range norm {
		enabled[i] = prob.AddBinVar(1, fmt.Sprintf("e[%s]", a.Name))
		aVar[i] = make([]int, S+1)
		oVar[i] = make([]int, S+1)
		mStart[i] = make([]int, S+1)
		mEnd[i] = make([]int, S+1)
		bigM := (float64(a.FM) + float64(S)*float64(a.IM) + float64(a.CM) + float64(a.OM)) * memScale
		for j := 1; j <= S; j++ {
			aVar[i][j] = prob.AddBinVar(a.Weight, fmt.Sprintf("a[%s,%d]", a.Name, j))
			oVar[i][j] = prob.AddBinVar(0, fmt.Sprintf("o[%s,%d]", a.Name, j))
			mStart[i][j] = prob.AddContVar(0, bigM+1, fmt.Sprintf("mS[%s,%d]", a.Name, j))
			mEnd[i][j] = prob.AddContVar(0, bigM+1, fmt.Sprintf("mE[%s,%d]", a.Name, j))
		}
	}

	for i, a := range norm {
		fm := float64(a.FM) * memScale
		im := float64(a.IM) * memScale
		cm := float64(a.CM) * memScale
		om := float64(a.OM) * memScale
		bigM := fm + float64(S)*im + cm + om + 1

		sumA := make([]int, 0, S)
		for j := 1; j <= S; j++ {
			// a <= e, o <= a.
			prob.LP.AddConstraint([]int{aVar[i][j], enabled[i]}, []float64{1, -1}, lp.LE, 0, "")
			prob.LP.AddConstraint([]int{oVar[i][j], aVar[i][j]}, []float64{1, -1}, lp.LE, 0, "")
			sumA = append(sumA, aVar[i][j])

			// Memory recurrence, equation 5:
			// mStart_j - mEnd_{j-1} - im·e - cm·a_j - om·o_j = 0,
			// with mEnd_0 = fm·e (equation 7).
			if j == 1 {
				prob.LP.AddConstraint(
					[]int{mStart[i][j], enabled[i], aVar[i][j], oVar[i][j]},
					[]float64{1, -(fm + im), -cm, -om}, lp.EQ, 0, "")
			} else {
				prob.LP.AddConstraint(
					[]int{mStart[i][j], mEnd[i][j-1], enabled[i], aVar[i][j], oVar[i][j]},
					[]float64{1, -1, -im, -cm, -om}, lp.EQ, 0, "")
			}
			// Equation 6 linearization:
			//  mEnd <= mStart
			//  mEnd >= mStart - M·o           (o=0 forces mEnd = mStart)
			//  mEnd <= fm·e + M·(1-o)         (o=1 forces mEnd <= fm·e)
			//  mEnd >= fm·e - M·(1-o)         (o=1 forces mEnd >= fm·e)
			prob.LP.AddConstraint([]int{mEnd[i][j], mStart[i][j]}, []float64{1, -1}, lp.LE, 0, "")
			prob.LP.AddConstraint([]int{mEnd[i][j], mStart[i][j], oVar[i][j]}, []float64{1, -1, bigM}, lp.GE, 0, "")
			prob.LP.AddConstraint([]int{mEnd[i][j], enabled[i], oVar[i][j]}, []float64{1, -fm, bigM}, lp.LE, bigM, "")
			prob.LP.AddConstraint([]int{mEnd[i][j], enabled[i], oVar[i][j]}, []float64{1, -fm, -bigM}, lp.GE, -bigM, "")
		}
		// Membership requires at least one analysis step.
		coefs := make([]float64, len(sumA)+1)
		idx := make([]int, len(sumA)+1)
		copy(idx, sumA)
		for k := range sumA {
			coefs[k] = 1
		}
		idx[len(sumA)] = enabled[i]
		coefs[len(sumA)] = -1
		prob.LP.AddConstraint(idx, coefs, lp.GE, 0, fmt.Sprintf("member[%s]", a.Name))

		// Unless outputs are optional, an enabled analysis must write its
		// results at least once (matching the compact model and the paper's
		// executed schedules).
		if !a.OutputOptional {
			oIdx := make([]int, 0, S+1)
			oCoef := make([]float64, 0, S+1)
			for j := 1; j <= S; j++ {
				oIdx = append(oIdx, oVar[i][j])
				oCoef = append(oCoef, 1)
			}
			oIdx = append(oIdx, enabled[i])
			oCoef = append(oCoef, -1)
			prob.LP.AddConstraint(oIdx, oCoef, lp.GE, 0, fmt.Sprintf("must_output[%s]", a.Name))
		}

		// Interval constraint: no analysis before step itv, and at most one
		// analysis in any itv-wide window.
		for j := 1; j < a.MinInterval && j <= S; j++ {
			prob.LP.Upper[aVar[i][j]] = 0
		}
		if a.MinInterval > 1 {
			for j := 1; j+a.MinInterval-1 <= S; j++ {
				var wIdx []int
				var wCoef []float64
				for jj := j; jj < j+a.MinInterval; jj++ {
					wIdx = append(wIdx, aVar[i][jj])
					wCoef = append(wCoef, 1)
				}
				prob.LP.AddConstraint(wIdx, wCoef, lp.LE, 1, "")
			}
		}
	}

	// Time threshold, equation 4.
	if res.TimeThreshold > 0 {
		var idx []int
		var coef []float64
		for i, a := range norm {
			idx = append(idx, enabled[i])
			coef = append(coef, a.FT+a.IT*float64(S))
			ot := a.outputTime(res.Bandwidth)
			for j := 1; j <= S; j++ {
				idx = append(idx, aVar[i][j], oVar[i][j])
				coef = append(coef, a.CT, ot)
			}
		}
		prob.LP.AddConstraint(idx, coef, lp.LE, res.TimeThreshold, "time-threshold")
	}

	// Memory threshold per step, equation 8.
	if res.MemThreshold > 0 {
		for j := 1; j <= S; j++ {
			var idx []int
			var coef []float64
			for i := range norm {
				idx = append(idx, mStart[i][j])
				coef = append(coef, 1)
			}
			prob.LP.AddConstraint(idx, coef, lp.LE, float64(res.MemThreshold)*memScale, fmt.Sprintf("mem[%d]", j))
		}
	}

	return prob, aVar, oVar
}
