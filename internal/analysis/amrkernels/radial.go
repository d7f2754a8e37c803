package amrkernels

import (
	"fmt"
	"io"
	"math"

	"insitu/internal/comm"
	"insitu/internal/sim/amr"
)

// RadialProfile bins density and pressure by distance from the blast center
// — the standard way Sedov runs are actually inspected (the 1D self-similar
// profile). Per-rank partial histograms combine with Allreduce.
type RadialProfile struct {
	grid  *amr.Grid
	ranks int
	world *comm.World

	count []float64 // cells per shell since last output
	dens  []float64 // accumulated density per shell
	pres  []float64 // accumulated pressure per shell
}

// radialBins is the number of radial shells a profile bins cells into.
const radialBins = 32

// NewRadialProfile builds the kernel.
func NewRadialProfile(grid *amr.Grid, ranks int) (*RadialProfile, error) {
	if ranks == 0 {
		ranks = 4
	}
	w, err := comm.NewWorld(ranks)
	if err != nil {
		return nil, err
	}
	return &RadialProfile{grid: grid, ranks: ranks, world: w}, nil
}

// Name implements analysis.Kernel.
func (k *RadialProfile) Name() string { return "radial profile" }

// Setup allocates the fixed shells.
func (k *RadialProfile) Setup() (int64, error) {
	k.count = make([]float64, radialBins)
	k.dens = make([]float64, radialBins)
	k.pres = make([]float64, radialBins)
	return int64(3*radialBins) * 8, nil
}

// PreStep is a no-op.
func (k *RadialProfile) PreStep(step int) (int64, error) { return 0, nil }

// Analyze bins every cell by radius.
func (k *RadialProfile) Analyze(step int) (int64, error) {
	g := k.grid
	center := float64(g.NBX*g.NB) * g.Dx / 2
	rmax := center * math.Sqrt(3) // domain corner distance
	var reduced []float64
	err := k.world.Run(func(r *comm.Rank) error {
		mine := make([]float64, 3*radialBins)
		for id := r.ID(); id < len(g.Blocks); id += r.Size() {
			b := g.Blocks[id]
			nb := b.NBCells()
			for i := 1; i <= nb; i++ {
				for j := 1; j <= nb; j++ {
					for k3 := 1; k3 <= nb; k3++ {
						n := b.Idx(i, j, k3)
						rho, _, _, _, p := g.Primitive(b, n)
						x, y, z := g.CellCenter(b, i-1, j-1, k3-1)
						rr := math.Sqrt((x-center)*(x-center) + (y-center)*(y-center) + (z-center)*(z-center))
						bin := int(rr / rmax * float64(radialBins))
						if bin >= radialBins {
							bin = radialBins - 1
						}
						mine[bin]++
						mine[radialBins+bin] += rho
						mine[2*radialBins+bin] += p
					}
				}
			}
		}
		out, err := r.Allreduce(mine, comm.Sum)
		if err != nil {
			return err
		}
		if r.ID() == 0 {
			reduced = out
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	for b := 0; b < radialBins; b++ {
		k.count[b] += reduced[b]
		k.dens[b] += reduced[radialBins+b]
		k.pres[b] += reduced[2*radialBins+b]
	}
	return int64(k.ranks*3*radialBins) * 8, nil
}

// MeanDensity returns the shell-averaged density profile (for tests).
func (k *RadialProfile) MeanDensity() []float64 {
	out := make([]float64, radialBins)
	for b := range out {
		if k.count[b] > 0 {
			out[b] = k.dens[b] / k.count[b]
		}
	}
	return out
}

// Output writes the shell averages and resets.
func (k *RadialProfile) Output(dst io.Writer) (int64, error) {
	var written int64
	g := k.grid
	center := float64(g.NBX*g.NB) * g.Dx / 2
	rmax := center * math.Sqrt(3)
	n, err := fmt.Fprintf(dst, "# radial profile t=%.5f (columns: r, <rho>, <p>)\n", g.Time)
	if err != nil {
		return written, err
	}
	written += int64(n)
	for b := 0; b < radialBins; b++ {
		r := (float64(b) + 0.5) / float64(radialBins) * rmax
		var rho, p float64
		if k.count[b] > 0 {
			rho = k.dens[b] / k.count[b]
			p = k.pres[b] / k.count[b]
		}
		n, err := fmt.Fprintf(dst, "%.5f %.6f %.6e\n", r, rho, p)
		if err != nil {
			return written, err
		}
		written += int64(n)
	}
	k.Free()
	return written, nil
}

// Free resets the shells.
func (k *RadialProfile) Free() {
	for b := range k.count {
		k.count[b], k.dens[b], k.pres[b] = 0, 0, 0
	}
}
