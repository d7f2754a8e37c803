// Package amr is a block-structured compressible-hydrodynamics mini-app
// standing in for FLASH, the paper's second evaluation application. It
// solves the 3D compressible Euler equations with a first-order
// Godunov/HLL finite-volume scheme on a block-decomposed Cartesian grid —
// FLASH's Uniform Grid (UG) mode, which the paper names alongside PARAMESH —
// and evolves the Sedov blast problem from the FLASH distribution: a
// delta-function pressure perturbation expanding into a cold ambient medium.
//
// Blocks carry ghost layers exchanged before every update, and the problem
// size scales by the global number of blocks exactly as the paper describes
// ("we can vary the problem size by adjusting the global number of blocks").
package amr

import (
	"fmt"
	"runtime"
	"sync"
)

// Conserved variable indices.
const (
	Dens = iota // mass density
	MomX        // x momentum density
	MomY
	MomZ
	Ener // total energy density
	NumVars
)

// Block is one grid block of nb^3 interior cells plus one ghost layer.
type Block struct {
	Index [3]int // block coordinates in the block lattice
	U     [NumVars][]float64
	nb    int // interior cells per side
	w     int // width including ghosts = nb+2
}

// idx maps (i,j,k) in ghosted coordinates [0,w) to the flat offset.
func (b *Block) idx(i, j, k int) int { return (i*b.w+j)*b.w + k }

// Grid is the global block-structured domain.
type Grid struct {
	NBX       int // blocks per lattice side: the lattice is NBX³ blocks
	NB        int // interior cells per block side
	Dx        float64
	Time      float64
	StepCount int
	Blocks    []*Block
}

// The gas is ideal with a ratio of specific heats of gamma, and every step
// runs at Courant number cfl. Both are typed so that a constant expression
// of them rounds as the same expression of float64 variables does.
const (
	gamma float64 = 1.4
	cfl   float64 = 0.4
)

// Config controls grid construction. The domain is the unit cube.
type Config struct {
	BlocksX int // block lattice BlocksX³ (default 4)
	NB      int // cells per block side (default 8; FLASH uses 16)
}

func (c Config) withDefaults() Config {
	if c.BlocksX == 0 {
		c.BlocksX = 4
	}
	if c.NB == 0 {
		c.NB = 8
	}
	return c
}

// NewGrid builds an empty grid (all-zero state).
func NewGrid(cfg Config) (*Grid, error) {
	cfg = cfg.withDefaults()
	if cfg.NB < 4 {
		return nil, fmt.Errorf("amr: blocks need at least 4 cells per side, got %d", cfg.NB)
	}
	if cfg.BlocksX < 1 {
		return nil, fmt.Errorf("amr: invalid block lattice %d³", cfg.BlocksX)
	}
	g := &Grid{
		NBX: cfg.BlocksX,
		NB:  cfg.NB,
		Dx:  1.0 / float64(cfg.BlocksX*cfg.NB),
	}
	n := g.NBX * g.NBX * g.NBX
	g.Blocks = make([]*Block, n)
	w := g.NB + 2
	for bi := 0; bi < g.NBX; bi++ {
		for bj := 0; bj < g.NBX; bj++ {
			for bk := 0; bk < g.NBX; bk++ {
				b := &Block{Index: [3]int{bi, bj, bk}, nb: g.NB, w: w}
				for v := 0; v < NumVars; v++ {
					b.U[v] = make([]float64, w*w*w)
				}
				g.Blocks[g.blockID(bi, bj, bk)] = b
			}
		}
	}
	return g, nil
}

func (g *Grid) blockID(bi, bj, bk int) int { return (bi*g.NBX+bj)*g.NBX + bk }

// NumCells returns the number of interior cells in the whole domain.
func (g *Grid) NumCells() int {
	return g.NBX * g.NBX * g.NBX * g.NB * g.NB * g.NB
}

// MemoryBytes estimates the resident bytes of the grid state, counting the
// ghosted storage of every mesh variable.
func (g *Grid) MemoryBytes() int64 {
	w := int64(g.NB + 2)
	return int64(len(g.Blocks)) * NumVars * w * w * w * 8
}

// CellCenter returns the physical coordinates of interior cell (i,j,k) of
// block b (interior indices in [0, NB)).
func (g *Grid) CellCenter(b *Block, i, j, k int) (x, y, z float64) {
	x = (float64(b.Index[0]*g.NB+i) + 0.5) * g.Dx
	y = (float64(b.Index[1]*g.NB+j) + 0.5) * g.Dx
	z = (float64(b.Index[2]*g.NB+k) + 0.5) * g.Dx
	return
}

// Primitive converts the conserved state at ghosted index n of block b to
// primitive variables (rho, u, v, w, p).
func (g *Grid) Primitive(b *Block, n int) (rho, u, v, w, p float64) {
	rho = b.U[Dens][n]
	if rho <= 0 {
		return rho, 0, 0, 0, 0
	}
	u = b.U[MomX][n] / rho
	v = b.U[MomY][n] / rho
	w = b.U[MomZ][n] / rho
	kin := 0.5 * rho * (u*u + v*v + w*w)
	p = (gamma - 1) * (b.U[Ener][n] - kin)
	return
}

// NewSedov builds the Sedov blast problem from the FLASH distribution:
// ambient gas at rho=1 with negligible pressure, and blast energy E
// deposited in a small sphere at the domain center.
func NewSedov(cfg Config) (*Grid, error) {
	g, err := NewGrid(cfg)
	if err != nil {
		return nil, err
	}
	const (
		rhoAmb = 1.0
		pAmb   = 1e-5
		eBlast = 1.0
	)
	rInit := 3.5 * g.Dx
	center := float64(g.NBX*g.NB) * g.Dx / 2
	// Count the cells whose centers fall inside the initial sphere so the
	// deposited energy integrates to exactly eBlast on the discrete grid.
	inside := 0
	for _, b := range g.Blocks {
		for i := 0; i < g.NB; i++ {
			for j := 0; j < g.NB; j++ {
				for k := 0; k < g.NB; k++ {
					x, y, z := g.CellCenter(b, i, j, k)
					if (x-center)*(x-center)+(y-center)*(y-center)+(z-center)*(z-center) < rInit*rInit {
						inside++
					}
				}
			}
		}
	}
	if inside == 0 {
		return nil, fmt.Errorf("amr: initial blast sphere contains no cell centers (grid too coarse)")
	}
	cellVol := g.Dx * g.Dx * g.Dx
	pBlast := (gamma - 1) * eBlast / (float64(inside) * cellVol)

	for _, b := range g.Blocks {
		for i := 0; i < g.NB; i++ {
			for j := 0; j < g.NB; j++ {
				for k := 0; k < g.NB; k++ {
					x, y, z := g.CellCenter(b, i, j, k)
					dx2 := (x-center)*(x-center) + (y-center)*(y-center) + (z-center)*(z-center)
					p := pAmb
					if dx2 < rInit*rInit {
						p = pBlast
					}
					n := b.idx(i+1, j+1, k+1)
					b.U[Dens][n] = rhoAmb
					b.U[Ener][n] = p / (gamma - 1)
				}
			}
		}
	}
	g.FillGhosts()
	return g, nil
}

// AmbientPressure is the Sedov background pressure, used by error-norm
// analyses as the reference state.
const AmbientPressure = 1e-5

// AmbientDensity is the Sedov background density.
const AmbientDensity = 1.0

// FillGhosts copies neighboring interior data into every block's ghost
// layer; domain boundaries get zero-gradient (outflow) values.
func (g *Grid) FillGhosts() {
	parallelBlocks(len(g.Blocks), func(id int) {
		g.fillGhostsBlock(g.Blocks[id])
	})
}

func (g *Grid) neighbor(b *Block, di, dj, dk int) *Block {
	ni, nj, nk := b.Index[0]+di, b.Index[1]+dj, b.Index[2]+dk
	if ni < 0 || ni >= g.NBX || nj < 0 || nj >= g.NBX || nk < 0 || nk >= g.NBX {
		return nil
	}
	return g.Blocks[g.blockID(ni, nj, nk)]
}

// fillGhostsBlock fills all six ghost faces of block b (face ghosts only;
// the first-order scheme does not use edge or corner ghosts).
func (g *Grid) fillGhostsBlock(b *Block) {
	nb, w := b.nb, b.w
	for v := 0; v < NumVars; v++ {
		u := b.U[v]
		// -x / +x faces.
		for _, face := range []struct {
			ghost, inner int // ghosted i of ghost cell and fallback interior
			nbr          *Block
			nbrI         int // ghosted i in the neighbor providing data
		}{
			{0, 1, g.neighbor(b, -1, 0, 0), nb},
			{w - 1, w - 2, g.neighbor(b, 1, 0, 0), 1},
		} {
			for j := 1; j <= nb; j++ {
				for k := 1; k <= nb; k++ {
					var val float64
					if face.nbr != nil {
						val = face.nbr.U[v][face.nbr.idx(face.nbrI, j, k)]
					} else {
						val = u[b.idx(face.inner, j, k)]
					}
					u[b.idx(face.ghost, j, k)] = val
				}
			}
		}
		// -y / +y faces.
		for _, face := range []struct {
			ghost, inner int
			nbr          *Block
			nbrJ         int
		}{
			{0, 1, g.neighbor(b, 0, -1, 0), nb},
			{w - 1, w - 2, g.neighbor(b, 0, 1, 0), 1},
		} {
			for i := 1; i <= nb; i++ {
				for k := 1; k <= nb; k++ {
					var val float64
					if face.nbr != nil {
						val = face.nbr.U[v][face.nbr.idx(i, face.nbrJ, k)]
					} else {
						val = u[b.idx(i, face.inner, k)]
					}
					u[b.idx(i, face.ghost, k)] = val
				}
			}
		}
		// -z / +z faces.
		for _, face := range []struct {
			ghost, inner int
			nbr          *Block
			nbrK         int
		}{
			{0, 1, g.neighbor(b, 0, 0, -1), nb},
			{w - 1, w - 2, g.neighbor(b, 0, 0, 1), 1},
		} {
			for i := 1; i <= nb; i++ {
				for j := 1; j <= nb; j++ {
					var val float64
					if face.nbr != nil {
						val = face.nbr.U[v][face.nbr.idx(i, j, face.nbrK)]
					} else {
						val = u[b.idx(i, j, face.inner)]
					}
					u[b.idx(i, j, face.ghost)] = val
				}
			}
		}
	}
}

// parallelBlocks runs fn over block ids with a bounded worker pool.
func parallelBlocks(n int, fn func(id int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	ch := make(chan int, n)
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range ch {
				fn(id)
			}
		}()
	}
	wg.Wait()
}
