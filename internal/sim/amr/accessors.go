package amr

// Exported block accessors used by analysis kernels (package amrkernels),
// which need raw cell access plus strides for finite-difference stencils.

// NBCells returns the number of interior cells per block side.
func (b *Block) NBCells() int { return b.nb }

// Idx returns the flat index of ghosted coordinates (i, j, k), each in
// [0, NBCells+2). Interior cells occupy [1, NBCells+1).
func (b *Block) Idx(i, j, k int) int { return b.idx(i, j, k) }

// Stride returns the flat-index stride along dimension dim (0=x, 1=y, 2=z).
func (b *Block) Stride(dim int) int {
	switch dim {
	case 0:
		return b.w * b.w
	case 1:
		return b.w
	default:
		return 1
	}
}
