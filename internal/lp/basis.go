package lp

import "math/bits"

// Basis is an immutable snapshot of a Solver's optimal basis: which column
// is basic in each row, and which nonbasic structural/slack columns rest at
// their upper bound. It is all a dual-simplex warm start needs — the matrix,
// objective and bounds come from the problem and the solve call — so a
// branch-and-bound node can carry its parent's Basis instead of a live
// solver, and any Solver of the same problem can continue from it.
//
// A snapshot is three allocations whatever the problem's size: the struct,
// one int32 column per row, and the at-upper flags of the n structural and
// slack columns packed into (n+63)/64 words, column j at bit j%64 of word
// j/64.
//
// A basic artificial (a redundant equality row keeps one, clamped at zero) is
// recorded like any other column, without its sign: a column fixed at
// [0, 0] spans the same basis and the same feasible set as +e_i or -e_i, so
// the installing solver is free to use +1.
type Basis struct {
	cols  []int32  // basic column per row
	upper []uint64 // bit j: structural/slack column j rests at its upper bound when nonbasic
	n     int      // structural+slack columns the flags cover
}

// snapshot copies the current basis out of the working state.
func (rv *revised) snapshot() *Basis {
	b := &Basis{cols: make([]int32, rv.m), upper: make([]uint64, (rv.n+63)/64), n: rv.n}
	for i, col := range rv.basis {
		b.cols[i] = int32(col)
	}
	for j, up := range rv.atUpper[:rv.n] {
		if up {
			b.upper[j/64] |= 1 << (j % 64)
		}
	}
	return b
}

// Columns names b in p's terms: each row's basic column, as variable j <
// NumVars() or as NumVars()+r for row r's slack or artificial (±e_r either
// way), and whether each variable rests at its upper bound when nonbasic.
func (b *Basis) Columns(p *Problem) (basic []int, atUpper []bool) {
	n, logical := p.NumVars(), []int(nil) // per solver column from n: the slacks, then the artificials
	for r, c := range p.Constraints {
		if c.Sense != EQ {
			logical = append(logical, n+r)
		}
	}
	for r := range p.Constraints {
		logical = append(logical, n+r)
	}
	for _, c := range b.cols {
		if basic = append(basic, int(c)); int(c) >= n {
			basic[len(basic)-1] = logical[int(c)-n]
		}
	}
	atUpper = make([]bool, n)
	for j := range atUpper {
		atUpper[j] = b.upper[j/64]&(1<<(j%64)) != 0
	}
	return basic, atUpper
}

// install replaces the working basis with b and refactorizes. Artificial
// columns are installed the way a finished phase 1 leaves them — clamped to
// [0, 0], so a basic one keeps acting as its equality row's identity column
// and none can enter. It reports false when b does not fit this problem
// (wrong shape, a column out of range or basic twice) or its basis matrix is
// numerically singular here; the working state is then unusable until the
// next cold solve resets it.
func (rv *revised) install(b *Basis) bool {
	if len(b.cols) != rv.m || b.n != rv.n {
		return false
	}
	for j := rv.n; j < rv.width; j++ {
		rv.lo[j], rv.up[j] = 0, 0
	}
	clear(rv.atUpper)
	for w, word := range b.upper {
		for ; word != 0; word &= word - 1 {
			rv.atUpper[w*64+bits.TrailingZeros64(word)] = true
		}
	}
	for i := range rv.artSign {
		rv.artSign[i] = 1
	}
	for j := range rv.inBasis {
		rv.inBasis[j] = false
	}
	for i, c := range b.cols {
		col := int(c)
		if col < 0 || col >= rv.width || rv.inBasis[col] {
			return false
		}
		rv.basis[i] = col
		rv.inBasis[col] = true
	}
	return rv.refactor()
}
