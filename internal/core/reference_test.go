package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"

	"insitu/internal/lp"
	"insitu/internal/milp"
)

// This file keeps the enumerator and builder the arithmetic mode table
// replaced, verbatim, as the reference the identity tests compare against:
// every (count, k) candidate materialises its step lists and walks
// modePeakMemory over them, columns are appended and named one at a time,
// and rows go through AddConstraint.

// refCompactRef records which analysis and mode a reference column selects.
type refCompactRef struct {
	analysis int
	m        mode
}

func refEnumerateModesPruned(a AnalysisSpec, res Resources, maxCount int, prune bool) []mode {
	bound := res.Steps / a.MinInterval
	if maxCount > 0 && bound > maxCount {
		bound = maxCount
	}
	var out []mode
	for count := 1; count <= bound; count++ {
		as := expandSteps(res.Steps, count)
		kMin := 1
		if a.OutputOptional {
			kMin = 0 // k = 0: never output
		}
		for k := kMin; k <= count; k++ {
			os := expandOutputs(as, k)
			m := mode{
				count:   count,
				k:       k,
				cost:    modeCost(a, res, count, len(os)),
				peakMem: modePeakMemory(a, res.Steps, as, os),
			}
			if prune && res.TimeThreshold > 0 && m.cost > res.TimeThreshold {
				continue
			}
			if prune && res.MemThreshold > 0 && m.peakMem > res.MemThreshold {
				continue
			}
			dominated := false
			for _, e := range out {
				if e.count == count && e.cost <= m.cost && e.peakMem <= m.peakMem {
					dominated = true
					break
				}
			}
			if !dominated {
				out = append(out, m)
			}
		}
	}
	return out
}

func refBuildCompactProblemForced(norm []AnalysisSpec, res Resources, opts SolveOptions, force int) (*milp.Problem, []refCompactRef) {
	prob := milp.NewProblem(&lp.Problem{})
	var refs []refCompactRef
	var cols []int
	var timeCoef, memCoef []float64
	perAnalysis := make([][]int, len(norm))

	for i, a := range norm {
		for _, m := range refEnumerateModesPruned(a, res, opts.MaxCount, i != force) {
			obj := 1 + a.Weight*float64(m.count)
			j := prob.AddBinVar(obj, fmt.Sprintf("x[%s,n=%d,k=%d]", a.Name, m.count, m.k))
			refs = append(refs, refCompactRef{analysis: i, m: m})
			perAnalysis[i] = append(perAnalysis[i], j)
			cols = append(cols, j)
			timeCoef = append(timeCoef, m.cost)
			memCoef = append(memCoef, float64(m.peakMem))
		}
	}

	ones := make([]float64, len(refs))
	for k := range ones {
		ones[k] = 1
	}
	for i, vars := range perAnalysis {
		if len(vars) == 0 {
			continue
		}
		prob.LP.AddConstraint(vars, ones[:len(vars)], lp.LE, 1, fmt.Sprintf("one-mode[%s]", norm[i].Name))
	}
	if force < 0 {
		prob.LP.Classes = len(prob.LP.Constraints)
	}
	if res.TimeThreshold > 0 && len(cols) > 0 {
		prob.LP.AddConstraint(cols, timeCoef, lp.LE, res.TimeThreshold, "time-threshold")
	}
	if res.MemThreshold > 0 && len(cols) > 0 {
		prob.LP.AddConstraint(cols, memCoef, lp.LE, float64(res.MemThreshold), "memory-threshold")
	}
	if force >= 0 && force < len(norm) {
		vars := perAnalysis[force]
		prob.LP.AddConstraint(vars, ones[:len(vars)], lp.GE, 1, fmt.Sprintf("force[%s]", norm[force].Name))
	}
	return prob, refs
}

// LargeSparseSpecs is the generator behind perfbench's sched_large_sparse and
// the benchmark's sparse pools (both keep theirs unexported): n analyses with
// coarse minimum intervals, a wide sparse 0-1 model under MaxCount 4.
func LargeSparseSpecs(n int) []AnalysisSpec {
	rng := rand.New(rand.NewSource(271828))
	specs := make([]AnalysisSpec, n)
	for i := range specs {
		specs[i] = AnalysisSpec{
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
	return specs
}

// CheckCompactIdentity builds the compact model of one instance with the
// reference above and with the production builder and reports the first
// difference: column-to-mode references, objective, bounds, integrality, every
// row's Idx/Coef/Sense/RHS/Name, the declared classes, the column names
// CompactNames produces, and (unforced) the ExportLP bytes. It also checks that the model handed to the
// solver carries no column names. force is -1 for the model Solve builds, or
// an analysis index for Explain's forced probe. Exported for identity_test.go,
// whose instance generators import this package.
func CheckCompactIdentity(specs []AnalysisSpec, res Resources, opts SolveOptions, force int) error {
	norm, err := normalizeSpecs(specs)
	if err != nil {
		return err
	}
	want, refs := refBuildCompactProblemForced(norm, res, opts, force)
	m, err := buildCompactProblem(norm, res, opts, force)
	if err != nil {
		return err
	}
	got, tab := &m.prob, m.tab
	if len(got.LP.Names) != 0 {
		return fmt.Errorf("solver-side model carries %d column names", len(got.LP.Names))
	}

	if len(tab.modes) != len(refs) {
		return fmt.Errorf("%d columns, reference %d", len(tab.modes), len(refs))
	}
	for i := range norm {
		for v := tab.start[i]; v < tab.start[i+1]; v++ {
			if refs[v].analysis != i || refs[v].m != tab.modes[v] {
				return fmt.Errorf("column %d: analysis %d mode %+v, reference analysis %d mode %+v",
					v, i, tab.modes[v], refs[v].analysis, refs[v].m)
			}
		}
	}
	capacity := 0
	for i, a := range norm {
		bound := modeBound(a, res, opts.MaxCount)
		if kept := tab.start[i+1] - tab.start[i]; kept > bound {
			return fmt.Errorf("analysis %d keeps %d modes, above its bound %d", i, kept, bound)
		}
		capacity += bound
	}
	if cap(tab.modes) != capacity {
		return fmt.Errorf("mode table regrown: capacity %d, allocated %d", cap(tab.modes), capacity)
	}
	if tab.start[0] != 0 || tab.start[len(norm)] != len(refs) {
		return fmt.Errorf("table offsets %v do not span %d columns", tab.start, len(refs))
	}

	if !slices.Equal(got.LP.Objective, want.LP.Objective) {
		return fmt.Errorf("objective differs")
	}
	if !slices.Equal(got.LP.Lower, want.LP.Lower) || !slices.Equal(got.LP.Upper, want.LP.Upper) {
		return fmt.Errorf("bounds differ")
	}
	if len(got.Integer) != len(want.Integer) {
		return fmt.Errorf("%d integrality marks, reference %d", len(got.Integer), len(want.Integer))
	}
	for j := range got.Integer {
		if got.Integer[j] != want.Integer[j] {
			return fmt.Errorf("integrality of column %d differs", j)
		}
	}
	if len(got.LP.Constraints) != len(want.LP.Constraints) || got.LP.Classes != want.LP.Classes {
		return fmt.Errorf("%d rows and %d classes, reference %d and %d",
			len(got.LP.Constraints), got.LP.Classes, len(want.LP.Constraints), want.LP.Classes)
	}
	for r, g := range got.LP.Constraints {
		w := want.LP.Constraints[r]
		if g.Name != w.Name || g.Sense != w.Sense || g.RHS != w.RHS ||
			!slices.Equal(g.Idx, w.Idx) || !slices.Equal(g.Coef, w.Coef) {
			return fmt.Errorf("row %d (%q) differs from reference row %q", r, g.Name, w.Name)
		}
	}
	if err := got.LP.Validate(); err != nil {
		return fmt.Errorf("built model invalid: %v", err)
	}

	if force >= 0 {
		return nil // names and the export are of the unforced model
	}
	names, err := CompactNames(specs, res, opts)
	if err != nil {
		return err
	}
	if len(names) != len(want.LP.Names) {
		return fmt.Errorf("%d names, reference %d", len(names), len(want.LP.Names))
	}
	for j := range names {
		if names[j] != want.LP.Names[j] {
			return fmt.Errorf("name of column %d is %q, reference %q", j, names[j], want.LP.Names[j])
		}
	}
	var gotLP, wantLP bytes.Buffer
	if err := ExportLP(&gotLP, specs, res, opts); err != nil {
		return err
	}
	if err := milp.WriteLP(&wantLP, want); err != nil {
		return err
	}
	if !bytes.Equal(gotLP.Bytes(), wantLP.Bytes()) {
		return fmt.Errorf("ExportLP bytes differ from the reference model's")
	}
	return nil
}
