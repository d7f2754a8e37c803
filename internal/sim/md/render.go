package md

import "strings"

// RenderSlice draws an ASCII projection of a slab of the system — the
// text-mode counterpart of the paper's Figure 3 (the rhodopsin snapshot:
// protein at the center, membrane slab across the middle, water above and
// below, scattered ions). The slab is centered on the plane y = Box[1]/2
// with thickness Box[1]/4; particles project onto an (x, z) character grid
// of 72 by 28. When several species land in one cell the rarest wins
// (protein > ion > hydronium > membrane > water), so minority structure
// stays visible.
func (s *System) RenderSlice() string {
	const width, height = 72, 28
	thick := s.Box[1] / 4
	glyph := map[Species]byte{
		Water:     '.',
		Membrane:  '=',
		Hydronium: 'h',
		Cation:    '+',
		Anion:     '-',
		Protein:   '#',
	}
	rank := map[Species]int{ // higher rank wins the cell
		Water:     0,
		Membrane:  1,
		Hydronium: 2,
		Cation:    3,
		Anion:     3,
		Protein:   4,
	}
	grid := make([][]Species, height)
	occupied := make([][]bool, height)
	for r := range grid {
		grid[r] = make([]Species, width)
		occupied[r] = make([]bool, width)
	}
	yMid := s.Box[1] / 2
	for i := 0; i < s.N; i++ {
		if d := s.Pos[i][1] - yMid; d < -thick/2 || d > thick/2 {
			continue
		}
		cx := int(s.Pos[i][0] / s.Box[0] * float64(width))
		cz := int(s.Pos[i][2] / s.Box[2] * float64(height))
		if cx >= width {
			cx = width - 1
		}
		if cz >= height {
			cz = height - 1
		}
		sp := s.Type[i]
		if !occupied[cz][cx] || rank[sp] > rank[grid[cz][cx]] {
			grid[cz][cx] = sp
			occupied[cz][cx] = true
		}
	}
	var b strings.Builder
	b.Grow((width + 1) * height)
	for r := height - 1; r >= 0; r-- {
		for c := 0; c < width; c++ {
			if occupied[r][c] {
				b.WriteByte(glyph[grid[r][c]])
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
