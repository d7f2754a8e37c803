package amr

import (
	"math"
	"sync"
)

// MaxWaveSpeed returns the maximum |u|+c over the interior cells, the
// quantity the CFL condition divides by. It reduces across blocks the way
// the real code would with an MPI_Allreduce.
func (g *Grid) MaxWaveSpeed() float64 {
	maxes := make([]float64, len(g.Blocks))
	parallelBlocks(len(g.Blocks), func(id int) {
		b := g.Blocks[id]
		m := 0.0
		for i := 1; i <= b.nb; i++ {
			for j := 1; j <= b.nb; j++ {
				for k := 1; k <= b.nb; k++ {
					n := b.idx(i, j, k)
					rho, u, v, w, p := g.Primitive(b, n)
					if rho <= 0 || p < 0 {
						continue
					}
					c := math.Sqrt(gamma * p / rho)
					s := math.Max(math.Abs(u), math.Max(math.Abs(v), math.Abs(w))) + c
					if s > m {
						m = s
					}
				}
			}
		}
		maxes[id] = m
	})
	out := 0.0
	for _, m := range maxes {
		if m > out {
			out = m
		}
	}
	return out
}

// Step advances the solution one time step of size dt using dimensionally
// unsplit first-order Godunov fluxes with the HLL approximate Riemann
// solver. Ghost layers are refreshed first.
func (g *Grid) Step(dt float64) {
	g.FillGhosts()
	lambda := dt / g.Dx
	// Double-buffer the update per block so flux evaluation reads a
	// consistent state.
	parallelBlocks(len(g.Blocks), func(id int) {
		g.stepBlock(g.Blocks[id], lambda)
	})
	g.Time += dt
	g.StepCount++
}

// StepCFL computes a stable dt from the CFL condition, advances one step,
// and returns the dt used.
func (g *Grid) StepCFL() float64 {
	s := g.MaxWaveSpeed()
	if s <= 0 {
		s = 1
	}
	dt := cfl * g.Dx / s
	g.Step(dt)
	return dt
}

// Run advances n CFL-limited steps.
func (g *Grid) Run(n int) {
	for i := 0; i < n; i++ {
		g.StepCFL()
	}
}

type updateBuf struct {
	u [NumVars][]float64
}

var blockBufs = sync.Pool{New: func() interface{} { return &updateBuf{} }}

// stepBlock applies the finite-volume update to one block's interior.
func (g *Grid) stepBlock(b *Block, lambda float64) {
	nb, w := b.nb, b.w
	buf := blockBufs.Get().(*updateBuf)
	need := w * w * w
	for v := 0; v < NumVars; v++ {
		if len(buf.u[v]) < need {
			buf.u[v] = make([]float64, need)
		}
		copy(buf.u[v][:need], b.U[v])
	}

	var uL, uR, flux [NumVars]float64
	read := func(n int) [NumVars]float64 {
		var s [NumVars]float64
		for v := 0; v < NumVars; v++ {
			s[v] = buf.u[v][n]
		}
		return s
	}
	strides := [3]int{w * w, w, 1} // i, j, k strides in ghosted layout

	for i := 1; i <= nb; i++ {
		for j := 1; j <= nb; j++ {
			for k := 1; k <= nb; k++ {
				n := b.idx(i, j, k)
				var du [NumVars]float64
				for dim := 0; dim < 3; dim++ {
					st := strides[dim]
					// Left face flux: between n-st and n.
					uL = read(n - st)
					uR = read(n)
					g.hll(dim, &uL, &uR, &flux)
					for v := 0; v < NumVars; v++ {
						du[v] += lambda * flux[v]
					}
					// Right face flux: between n and n+st.
					uL = read(n)
					uR = read(n + st)
					g.hll(dim, &uL, &uR, &flux)
					for v := 0; v < NumVars; v++ {
						du[v] -= lambda * flux[v]
					}
				}
				for v := 0; v < NumVars; v++ {
					b.U[v][n] = buf.u[v][n] + du[v]
				}
				// Positivity floor: keep density and internal energy sane in
				// the near-vacuum ambient region.
				if b.U[Dens][n] < 1e-12 {
					b.U[Dens][n] = 1e-12
				}
				rho := b.U[Dens][n]
				kin := 0.5 * (b.U[MomX][n]*b.U[MomX][n] + b.U[MomY][n]*b.U[MomY][n] + b.U[MomZ][n]*b.U[MomZ][n]) / rho
				if b.U[Ener][n] < kin+1e-14 {
					b.U[Ener][n] = kin + 1e-14
				}
			}
		}
	}
	blockBufs.Put(buf)
}

// hll computes the HLL flux across a face normal to dim between states uL
// and uR.
func (g *Grid) hll(dim int, uL, uR, out *[NumVars]float64) {
	mom := MomX + dim
	rhoL, pL, vnL := g.faceState(uL, mom)
	rhoR, pR, vnR := g.faceState(uR, mom)
	cL := math.Sqrt(gamma * math.Max(pL, 0) / rhoL)
	cR := math.Sqrt(gamma * math.Max(pR, 0) / rhoR)
	sL := math.Min(vnL-cL, vnR-cR)
	sR := math.Max(vnL+cL, vnR+cR)

	var fL, fR [NumVars]float64
	physFlux(uL, mom, vnL, pL, &fL)
	physFlux(uR, mom, vnR, pR, &fR)

	switch {
	case sL >= 0:
		*out = fL
	case sR <= 0:
		*out = fR
	default:
		inv := 1 / (sR - sL)
		for v := 0; v < NumVars; v++ {
			out[v] = (sR*fL[v] - sL*fR[v] + sL*sR*(uR[v]-uL[v])) * inv
		}
	}
}

// faceState extracts density, pressure and normal velocity from a conserved
// state, flooring density.
func (g *Grid) faceState(u *[NumVars]float64, mom int) (rho, p, vn float64) {
	rho = math.Max(u[Dens], 1e-12)
	vn = u[mom] / rho
	kin := 0.5 * (u[MomX]*u[MomX] + u[MomY]*u[MomY] + u[MomZ]*u[MomZ]) / rho
	p = (gamma - 1) * (u[Ener] - kin)
	if p < 0 {
		p = 0
	}
	return
}

// physFlux evaluates the Euler flux along the direction of `mom`.
func physFlux(u *[NumVars]float64, mom int, vn, p float64, out *[NumVars]float64) {
	out[Dens] = u[mom]
	out[MomX] = u[MomX] * vn
	out[MomY] = u[MomY] * vn
	out[MomZ] = u[MomZ] * vn
	out[mom] += p
	out[Ener] = (u[Ener] + p) * vn
}

// TotalMass integrates density over the domain.
func (g *Grid) TotalMass() float64 {
	return g.integrate(Dens)
}

// TotalEnergy integrates total energy density over the domain.
func (g *Grid) TotalEnergy() float64 {
	return g.integrate(Ener)
}

func (g *Grid) integrate(v int) float64 {
	cellVol := g.Dx * g.Dx * g.Dx
	sums := make([]float64, len(g.Blocks))
	parallelBlocks(len(g.Blocks), func(id int) {
		b := g.Blocks[id]
		s := 0.0
		for i := 1; i <= b.nb; i++ {
			for j := 1; j <= b.nb; j++ {
				for k := 1; k <= b.nb; k++ {
					s += b.U[v][b.idx(i, j, k)]
				}
			}
		}
		sums[id] = s
	})
	total := 0.0
	for _, s := range sums {
		total += s
	}
	return total * cellVol
}

// ShockRadius estimates the blast-wave radius as the density-weighted mean
// distance of over-dense cells from the domain center. The Sedov-Taylor
// solution predicts R(t) ~ (E t^2 / rho)^(1/5).
func (g *Grid) ShockRadius() float64 {
	center := float64(g.NBX*g.NB) * g.Dx / 2
	var wsum, rsum float64
	for _, b := range g.Blocks {
		for i := 1; i <= b.nb; i++ {
			for j := 1; j <= b.nb; j++ {
				for k := 1; k <= b.nb; k++ {
					n := b.idx(i, j, k)
					over := b.U[Dens][n] - AmbientDensity
					if over <= 0.01 {
						continue
					}
					x, y, z := g.CellCenter(b, i-1, j-1, k-1)
					r := math.Sqrt((x-center)*(x-center) + (y-center)*(y-center) + (z-center)*(z-center))
					wsum += over
					rsum += over * r
				}
			}
		}
	}
	if wsum == 0 {
		return 0
	}
	return rsum / wsum
}
