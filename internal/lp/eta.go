package lp

// etaFile is a product-form-of-the-inverse (PFI) representation of the basis
// inverse: B^-1 = E_k · ... · E_2 · E_1, where each eta matrix E differs from
// the identity in a single column r:
//
//	E[r][r] = 1/w_r        (pivVal)
//	E[i][r] = -w_i/w_r     (stored off-pivot entries)
//
// with w = B_old^-1 · a_enter the FTRAN'd entering column of the pivot that
// produced it. Applying FTRAN (x -> E·x, in append order) or BTRAN
// (y -> E^T·y, in reverse order) costs O(nnz) per eta, so a solve touches the
// basis in time proportional to the factorization's fill rather than the
// dense m×n tableau. The file grows by one eta per pivot and is periodically
// rebuilt from scratch (refactorization) to bound both fill and accumulated
// roundoff.
type etaFile struct {
	pivRow []int
	pivVal []float64 // 1/w_r per eta
	start  []int     // len(pivRow)+1 offsets into idx/val
	idx    []int     // off-pivot row indices
	val    []float64 // -w_i/w_r per off-pivot entry
}

// reset empties the file, keeping capacity.
func (e *etaFile) reset() {
	e.pivRow = e.pivRow[:0]
	e.pivVal = e.pivVal[:0]
	e.start = e.start[:0]
	e.idx = e.idx[:0]
	e.val = e.val[:0]
}

// count returns the number of eta matrices in the file.
func (e *etaFile) count() int { return len(e.pivRow) }

// entries returns the total number of stored entries (pivots plus fill),
// the "eta length" the solver statistics report.
func (e *etaFile) entries() int { return len(e.pivRow) + len(e.idx) }

// push appends the eta matrix of a pivot on row r with FTRAN'd entering
// column w. Identity etas (unit pivot, no fill) are dropped: applying them is
// a no-op, and the all-slack initial factorization is made entirely of them.
func (e *etaFile) push(r int, w []float64) {
	piv, base := 1/w[r], len(e.idx)
	for i, wi := range w {
		if i != r && wi != 0 {
			e.idx = append(e.idx, i)
			e.val = append(e.val, -wi*piv)
		}
	}
	e.seal(r, piv, base)
}

// pushPattern is push for a w whose nonzeros all lie on the ascending rows of
// pat: the same entries in the same order, without visiting the other rows.
func (e *etaFile) pushPattern(r int, w []float64, pat []int) {
	piv, base := 1/w[r], len(e.idx)
	for _, i := range pat {
		if wi := w[i]; i != r && wi != 0 {
			e.idx = append(e.idx, i)
			e.val = append(e.val, -wi*piv)
		}
	}
	e.seal(r, piv, base)
}

// seal closes the eta on row r whose off-pivot entries start at base, or
// drops it when it is an identity.
func (e *etaFile) seal(r int, piv float64, base int) {
	if piv == 1 && len(e.idx) == base {
		return
	}
	if len(e.start) == 0 {
		e.start = append(e.start, 0)
	}
	e.pivRow = append(e.pivRow, r)
	e.pivVal = append(e.pivVal, piv)
	e.start = append(e.start, len(e.idx))
}

// pushSingleton appends a fill-free eta with the given pivot row and
// reciprocal pivot value — the diagonal etas of an initial ±1 basis.
func (e *etaFile) pushSingleton(r int, pivVal float64) {
	if len(e.start) == 0 {
		e.start = append(e.start, 0)
	}
	e.pivRow = append(e.pivRow, r)
	e.pivVal = append(e.pivVal, pivVal)
	e.start = append(e.start, len(e.idx))
}

// ftran applies x <- E_k · ... · E_1 · x in place, turning a column of A into
// its representation under the current basis inverse.
func (e *etaFile) ftran(x []float64) {
	for k := 0; k < len(e.pivRow); k++ {
		r := e.pivRow[k]
		xr := x[r]
		if xr == 0 {
			continue
		}
		for t := e.start[k]; t < e.start[k+1]; t++ {
			x[e.idx[t]] += e.val[t] * xr
		}
		x[r] = e.pivVal[k] * xr
	}
}

// ftranPattern is ftran for an x whose nonzeros lie on the rows listed in
// pat, each marked in mark. It appends, and marks, every row an eta fills,
// and returns the extended pattern (unsorted), which then covers every
// nonzero of x. The arithmetic is ftran's, operation for operation; only the
// bookkeeping is added.
func (e *etaFile) ftranPattern(x []float64, pat []int, mark []bool) []int {
	for k := 0; k < len(e.pivRow); k++ {
		r := e.pivRow[k]
		xr := x[r]
		if xr == 0 {
			continue
		}
		for t := e.start[k]; t < e.start[k+1]; t++ {
			i := e.idx[t]
			if !mark[i] {
				mark[i] = true
				pat = append(pat, i)
			}
			x[i] += e.val[t] * xr
		}
		x[r] = e.pivVal[k] * xr
	}
	return pat
}

// btran applies y <- E_1^T · ... · E_k^T · y in place (reverse eta order),
// producing row vectors y^T B^-1 such as the simplex multipliers and the
// pivot row needed by the dual ratio test and Devex updates.
func (e *etaFile) btran(y []float64) {
	for k := len(e.pivRow) - 1; k >= 0; k-- {
		r := e.pivRow[k]
		s := e.pivVal[k] * y[r]
		for t := e.start[k]; t < e.start[k+1]; t++ {
			s += e.val[t] * y[e.idx[t]]
		}
		y[r] = s
	}
}
