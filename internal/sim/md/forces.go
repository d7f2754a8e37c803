package md

import (
	"runtime"
	"sync"
)

// cellList bins particles into cells of side >= cutoff so force evaluation
// only visits the 27 neighboring cells of each particle.
type cellList struct {
	dims    [3]int
	invSide [3]float64
	heads   []int32 // first particle per cell, -1 if empty
	next    []int32 // linked list through particles
}

func (s *System) buildCells() {
	cl := s.cells
	var dims [3]int
	for d := 0; d < 3; d++ {
		dims[d] = int(s.Box[d] / Cutoff)
		if dims[d] < 1 {
			dims[d] = 1
		}
	}
	nc := dims[0] * dims[1] * dims[2]
	if cl == nil || cl.dims != dims || len(cl.next) != s.N {
		cl = &cellList{dims: dims, heads: make([]int32, nc), next: make([]int32, s.N)}
		s.cells = cl
	}
	for d := 0; d < 3; d++ {
		cl.invSide[d] = float64(dims[d]) / s.Box[d]
	}
	for c := range cl.heads {
		cl.heads[c] = -1
	}
	for i := 0; i < s.N; i++ {
		c := cl.cellOf(s.Pos[i])
		cl.next[i] = cl.heads[c]
		cl.heads[c] = int32(i)
	}
}

func (cl *cellList) cellOf(p Vec3) int {
	cx := int(p[0] * cl.invSide[0])
	cy := int(p[1] * cl.invSide[1])
	cz := int(p[2] * cl.invSide[2])
	if cx >= cl.dims[0] {
		cx = cl.dims[0] - 1
	}
	if cy >= cl.dims[1] {
		cy = cl.dims[1] - 1
	}
	if cz >= cl.dims[2] {
		cz = cl.dims[2] - 1
	}
	return (cx*cl.dims[1]+cy)*cl.dims[2] + cz
}

// ComputeForces evaluates Lennard-Jones forces with the current positions.
// Each particle accumulates only its own force (full neighbor iteration), so
// the loop parallelizes over particles without write conflicts; the factor-2
// redundancy is the standard trade for lock-free shared-memory MD.
func (s *System) ComputeForces() {
	s.buildCells()
	cl := s.cells
	cut2 := Cutoff * Cutoff

	workers := runtime.GOMAXPROCS(0)
	if workers > s.N/64+1 {
		workers = s.N/64 + 1
	}
	potParts := make([]float64, workers)
	virParts := make([]float64, workers)
	var wg sync.WaitGroup
	chunk := (s.N + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > s.N {
			hi = s.N
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			pot, vir := 0.0, 0.0
			for i := lo; i < hi; i++ {
				p, v := s.forceOn(i, cl, cut2)
				pot += p
				vir += v
			}
			potParts[w] = pot
			virParts[w] = vir
		}(w, lo, hi)
	}
	wg.Wait()
	total, vtotal := 0.0, 0.0
	for w := range potParts {
		total += potParts[w]
		vtotal += virParts[w]
	}
	// Pair energy and virial were counted once per particle, i.e. twice per
	// pair.
	s.PotEnergy = total / 2
	s.virial = vtotal / 2
}

// forceOn accumulates the total LJ force on particle i and returns its pair
// potential energy and virial contributions (each pair counted once from
// each side).
func (s *System) forceOn(i int, cl *cellList, cut2 float64) (pot, vir float64) {
	pi := s.Pos[i]
	ti := s.Type[i]
	cx := int(pi[0] * cl.invSide[0])
	cy := int(pi[1] * cl.invSide[1])
	cz := int(pi[2] * cl.invSide[2])
	if cx >= cl.dims[0] {
		cx = cl.dims[0] - 1
	}
	if cy >= cl.dims[1] {
		cy = cl.dims[1] - 1
	}
	if cz >= cl.dims[2] {
		cz = cl.dims[2] - 1
	}
	var f Vec3
	// With fewer than 3 cells along a dimension the -1 and +1 offsets alias
	// the same cell; restrict the offset range so each cell is visited once.
	for _, dx := range offsets(cl.dims[0]) {
		nx := wrapCell(cx+dx, cl.dims[0])
		for _, dy := range offsets(cl.dims[1]) {
			ny := wrapCell(cy+dy, cl.dims[1])
			for _, dz := range offsets(cl.dims[2]) {
				nz := wrapCell(cz+dz, cl.dims[2])
				c := (nx*cl.dims[1]+ny)*cl.dims[2] + nz
				for j := cl.heads[c]; j >= 0; j = cl.next[j] {
					if int(j) == i {
						continue
					}
					d := s.MinImage(pi, s.Pos[j])
					r2 := d.Norm2()
					if r2 >= cut2 || r2 == 0 {
						continue
					}
					tj := s.Type[j]
					sig2 := s.sigma2[ti][tj]
					eps := s.eps[ti][tj]
					sr2 := sig2 / r2
					sr6 := sr2 * sr2 * sr2
					sr12 := sr6 * sr6
					// F = 24 eps (2 sr12 - sr6) / r2 * d
					fmag := 24 * eps * (2*sr12 - sr6) / r2
					f[0] += fmag * d[0]
					f[1] += fmag * d[1]
					f[2] += fmag * d[2]
					pot += 4 * eps * (sr12 - sr6)
					vir += fmag * r2 // f_ij . r_ij
				}
			}
		}
	}
	s.Force[i] = f
	return pot, vir
}

// PrepareNeighbors (re)builds the cell list for the current positions so
// that ForEachNeighbor queries are valid. Analysis kernels call it once per
// analysis step before issuing neighbor queries.
func (s *System) PrepareNeighbors() { s.buildCells() }

// ForEachNeighbor calls fn for every particle j != i within Cutoff (the cell
// list granularity) of particle i, passing the squared distance.
// PrepareNeighbors must have been called after the last position update.
func (s *System) ForEachNeighbor(i int, fn func(j int, r2 float64)) {
	if s.cells == nil {
		s.buildCells()
	}
	cl := s.cells
	const r2max = Cutoff * Cutoff
	pi := s.Pos[i]
	cx := int(pi[0] * cl.invSide[0])
	cy := int(pi[1] * cl.invSide[1])
	cz := int(pi[2] * cl.invSide[2])
	if cx >= cl.dims[0] {
		cx = cl.dims[0] - 1
	}
	if cy >= cl.dims[1] {
		cy = cl.dims[1] - 1
	}
	if cz >= cl.dims[2] {
		cz = cl.dims[2] - 1
	}
	for _, dx := range offsets(cl.dims[0]) {
		nx := wrapCell(cx+dx, cl.dims[0])
		for _, dy := range offsets(cl.dims[1]) {
			ny := wrapCell(cy+dy, cl.dims[1])
			for _, dz := range offsets(cl.dims[2]) {
				nz := wrapCell(cz+dz, cl.dims[2])
				c := (nx*cl.dims[1]+ny)*cl.dims[2] + nz
				for j := cl.heads[c]; j >= 0; j = cl.next[j] {
					if int(j) == i {
						continue
					}
					d := s.MinImage(pi, s.Pos[j])
					r2 := d.Norm2()
					if r2 < r2max {
						fn(int(j), r2)
					}
				}
			}
		}
	}
}

var (
	offs3 = []int{-1, 0, 1}
	offs2 = []int{0, 1}
	offs1 = []int{0}
)

// offsets returns the neighbor-cell offsets for a dimension with n cells.
func offsets(n int) []int {
	switch {
	case n >= 3:
		return offs3
	case n == 2:
		return offs2
	default:
		return offs1
	}
}

func wrapCell(c, n int) int {
	if c < 0 {
		return c + n
	}
	if c >= n {
		return c - n
	}
	return c
}
