package lp

import (
	"math"
	"sync"
)

// colStore is a compressed-sparse-column (CSC) view of the constraint matrix
// in equality form: the structural columns of the Problem followed by one
// slack (+1) or surplus (-1) singleton column per inequality row. Scheduling
// LPs are extremely sparse — each constraint touches a handful of variables —
// so the revised simplex prices and FTRANs columns in O(nnz) where the dense
// tableau paid O(rows) per column regardless of structure.
//
// The store is built once per Problem (NewSolvers / Solve) and read, never
// written, by every cold and warm solve of every solver built with it: only
// variable bounds change between branch-and-bound nodes, never the matrix.
// Its arrays outlive it: Release and Solve give the store back to storePool,
// and the next build reuses them. Phase-1 artificial columns are NOT stored
// here; they are implicit ±1 singletons handled by the revised solver (colDot
// / colScatter), so the store never has to be rebuilt when artificial signs
// change between cold builds.
type colStore struct {
	m     int // constraint rows
	nOrig int // structural columns
	n     int // structural + slack/surplus columns

	ptr []int // n+1 column offsets into idx/val
	idx []int // row indices
	val []float64

	slackCol []int     // per row: its slack/surplus column, -1 for EQ rows
	sense    []Sense   // per row: original constraint sense
	scale    []float64 // per row: the power of two its coefficients and RHS are divided by (see rowScale)

	solvers int // how many Solvers read the store (see Release)
}

// storePool holds column stores between solves; Release and Solve give
// theirs back.
var storePool = sync.Pool{New: func() any { return new(colStore) }}

// buildColStore transposes the problem's sparse constraint rows into column
// form (stored zeros dropped), each row divided by its rowScale, and appends
// the slack/surplus singletons, in a store taken from storePool whose arrays
// it reuses.
func buildColStore(p *Problem) *colStore {
	nOrig := p.NumVars()
	m := len(p.Constraints)
	nSlack := 0
	for _, c := range p.Constraints {
		if c.Sense != EQ {
			nSlack++
		}
	}
	n := nOrig + nSlack
	cs := storePool.Get().(*colStore)
	cs.m, cs.nOrig, cs.n = m, nOrig, n
	cs.slackCol, cs.sense, cs.scale = Resize(cs.slackCol, m), Resize(cs.sense, m), Resize(cs.scale, m)

	// Two-pass CSC build: count nonzeros per column into ptr[j+1], prefix-sum,
	// then fill with ptr[j] as column j's cursor, which leaves each offset one
	// column to the left of where it belongs.
	ptr := Resize(cs.ptr, n+1)
	for _, c := range p.Constraints {
		for k, j := range c.Idx {
			if c.Coef[k] != 0 {
				ptr[j+1]++
			}
		}
	}
	slack := nOrig
	for i, c := range p.Constraints {
		cs.sense[i], cs.scale[i] = c.Sense, rowScale(c)
		if c.Sense == EQ {
			cs.slackCol[i] = -1
			continue
		}
		cs.slackCol[i] = slack
		ptr[slack+1]++
		slack++
	}
	for j := 0; j < n; j++ {
		ptr[j+1] += ptr[j]
	}
	cs.idx, cs.val = Resize(cs.idx, ptr[n]), Resize(cs.val, ptr[n])
	for i, c := range p.Constraints {
		inv := 1 / cs.scale[i] // a power of two too: v·inv is v/scale, bit for bit
		for t, j := range c.Idx {
			if v := c.Coef[t]; v != 0 {
				k := ptr[j]
				cs.idx[k] = i
				cs.val[k] = v * inv
				ptr[j] = k + 1
			}
		}
	}
	slack = nOrig
	for i, c := range p.Constraints {
		if c.Sense == EQ {
			continue
		}
		k := ptr[slack]
		cs.idx[k] = i
		if c.Sense == LE {
			cs.val[k] = 1
		} else {
			cs.val[k] = -1
		}
		ptr[slack] = k + 1
		slack++
	}
	copy(ptr[1:], ptr[:n])
	ptr[0] = 0
	cs.ptr = ptr
	return cs
}

// rowScale returns the factor row c is divided by inside the solver: the
// largest power of two at most |RHS|, or at most max |a| on a row whose RHS is
// zero, and 1 for an empty row or one whose scaled coefficients (or the
// factor's reciprocal) would not be finite. The compact scheduling model
// states memory in bytes (RHS ~2^33) and time in seconds on neighbouring
// rows; divided through, both read O(1), so the absolute pivot and
// feasibility tolerances mean the same on each. Dividing by 2^k changes no
// mantissa, so the scaled row is exact, and so is mapping a dual back to the
// row's own units.
func rowScale(c Constraint) float64 {
	v := math.Abs(c.RHS)
	if v == 0 {
		v = maxAbs(c.Coef)
	}
	if v == 0 {
		return 1
	}
	_, exp := math.Frexp(v) // v = frac·2^exp, frac in [0.5, 1)
	f := math.Ldexp(1, exp-1)
	if f < 1 && math.IsInf(max(1, maxAbs(c.Coef))/f, 0) {
		return 1
	}
	return f
}

// maxAbs returns the largest magnitude in a, 0 for none.
func maxAbs(a []float64) float64 {
	m := 0.0
	for _, v := range a {
		m = max(m, math.Abs(v))
	}
	return m
}

// nnz returns the number of stored nonzeros in column j.
func (cs *colStore) nnz(j int) int { return cs.ptr[j+1] - cs.ptr[j] }

// dot returns a_j · y for stored column j.
func (cs *colStore) dot(j int, y []float64) float64 {
	s := 0.0
	for k := cs.ptr[j]; k < cs.ptr[j+1]; k++ {
		s += cs.val[k] * y[cs.idx[k]]
	}
	return s
}

// scatterAdd adds scale * a_j into the dense vector out.
func (cs *colStore) scatterAdd(j int, scale float64, out []float64) {
	for k := cs.ptr[j]; k < cs.ptr[j+1]; k++ {
		out[cs.idx[k]] += scale * cs.val[k]
	}
}
