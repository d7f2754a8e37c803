package amr

import (
	"math"
	"strings"
)

// RenderSlice draws an ASCII density map of the z-midplane — the quick-look
// visualization a scientist steering a Sedov run would inspect (§3.2 notes
// in-situ output lets researchers "check behavior of a running simulation").
// Density maps to a character ramp from vacuum to the strong-shock limit, on
// a grid of 64 by 28 characters.
func (g *Grid) RenderSlice() string {
	const width, height = 64, 28
	ramp := []byte(" .:-=+*#%@")
	nx := g.NBX * g.NB
	ny := nx
	kMid := nx / 2

	// Sample the physical grid onto the character grid.
	cell := func(i, j int) float64 {
		b := g.Blocks[g.blockID(i/g.NB, j/g.NB, kMid/g.NB)]
		return b.U[Dens][b.idx(i%g.NB+1, j%g.NB+1, kMid%g.NB+1)]
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			d := cell(i, j)
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
	}
	if hi <= lo {
		hi = lo + 1
	}

	var b strings.Builder
	b.Grow((width + 1) * height)
	for r := height - 1; r >= 0; r-- {
		j := r * ny / height
		for c := 0; c < width; c++ {
			i := c * nx / width
			t := (cell(i, j) - lo) / (hi - lo)
			idx := int(t * float64(len(ramp)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			b.WriteByte(ramp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
