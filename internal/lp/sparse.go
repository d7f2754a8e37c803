package lp

// colStore is a compressed-sparse-column (CSC) view of the constraint matrix
// in equality form: the structural columns of the Problem followed by one
// slack (+1) or surplus (-1) singleton column per inequality row. Scheduling
// LPs are extremely sparse — each constraint touches a handful of variables —
// so the revised simplex prices and FTRANs columns in O(nnz) where the dense
// tableau paid O(rows) per column regardless of structure.
//
// The store is built once per Problem (NewSolvers / Solve) and read, never
// written, by every cold and warm solve of every solver built with it: only
// variable bounds change between branch-and-bound nodes, never the matrix. Phase-1 artificial columns are NOT stored here;
// they are implicit ±1 singletons handled by the revised solver (colDot /
// colScatter), so the store never has to be rebuilt when artificial signs
// change between cold builds.
type colStore struct {
	m     int // constraint rows
	nOrig int // structural columns
	n     int // structural + slack/surplus columns

	ptr []int // n+1 column offsets into idx/val
	idx []int // row indices
	val []float64

	slackCol []int   // per row: its slack/surplus column, -1 for EQ rows
	sense    []Sense // per row: original constraint sense
}

// buildColStore transposes the problem's sparse constraint rows into column
// form (stored zeros dropped) and appends the slack/surplus singletons.
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
	cs := &colStore{
		m:        m,
		nOrig:    nOrig,
		n:        n,
		ptr:      make([]int, n+1),
		slackCol: make([]int, m),
		sense:    make([]Sense, m),
	}

	// Two-pass CSC build: count nonzeros per column, prefix-sum, fill.
	counts := make([]int, n)
	nnz := 0
	for _, c := range p.Constraints {
		for k, j := range c.Idx {
			if c.Coef[k] != 0 {
				counts[j]++
				nnz++
			}
		}
	}
	slack := nOrig
	for i, c := range p.Constraints {
		cs.sense[i] = c.Sense
		if c.Sense == EQ {
			cs.slackCol[i] = -1
			continue
		}
		cs.slackCol[i] = slack
		counts[slack]++
		nnz++
		slack++
	}
	cs.idx = make([]int, nnz)
	cs.val = make([]float64, nnz)
	for j := 0; j < n; j++ {
		cs.ptr[j+1] = cs.ptr[j] + counts[j]
		counts[j] = cs.ptr[j] // reuse as fill cursor
	}
	for i, c := range p.Constraints {
		for t, j := range c.Idx {
			if v := c.Coef[t]; v != 0 {
				k := counts[j]
				cs.idx[k] = i
				cs.val[k] = v
				counts[j] = k + 1
			}
		}
	}
	slack = nOrig
	for i, c := range p.Constraints {
		if c.Sense == EQ {
			continue
		}
		k := counts[slack]
		cs.idx[k] = i
		if c.Sense == LE {
			cs.val[k] = 1
		} else {
			cs.val[k] = -1
		}
		counts[slack] = k + 1
		slack++
	}
	return cs
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
