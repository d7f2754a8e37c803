package mdkernels

import (
	"fmt"
	"io"

	"insitu/internal/comm"
	"insitu/internal/sim/md"
)

// DensityHist computes a 2D histogram of the density profile of one species
// over the (x, z) plane (Table 3: analyses R2 membrane and R3 protein). The
// cost is dominated by reducing the full grid across ranks, which is why the
// paper measures nearly identical times for R2 and R3 (17.193 s vs 17.194 s)
// despite their different particle counts.
type DensityHist struct {
	name  string
	sys   *md.System
	sp    []md.Species
	ranks int
	world *comm.World

	grid    []float64 // fixed allocation histSide*histSide
	samples int
}

// histSide is the histogram's resolution along x and along z.
const histSide = 256

// NewDensityHist builds a histogram kernel for the given species set,
// reducing over ranks workers (default 4).
func NewDensityHist(name string, sys *md.System, sp []md.Species, ranks int) (*DensityHist, error) {
	if ranks == 0 {
		ranks = 4
	}
	if len(sp) == 0 {
		return nil, fmt.Errorf("mdkernels: density histogram %q needs a species", name)
	}
	w, err := comm.NewWorld(ranks)
	if err != nil {
		return nil, err
	}
	return &DensityHist{name: name, sys: sys, sp: sp, ranks: ranks, world: w}, nil
}

// NewMembraneHist builds analysis R2.
func NewMembraneHist(sys *md.System, ranks int) (*DensityHist, error) {
	return NewDensityHist("R2 membrane histogram", sys, []md.Species{md.Membrane}, ranks)
}

// NewProteinHist builds analysis R3.
func NewProteinHist(sys *md.System, ranks int) (*DensityHist, error) {
	return NewDensityHist("R3 protein histogram", sys, []md.Species{md.Protein}, ranks)
}

// Name implements analysis.Kernel.
func (k *DensityHist) Name() string { return k.name }

// Setup allocates the fixed grid.
func (k *DensityHist) Setup() (int64, error) {
	k.grid = make([]float64, histSide*histSide)
	k.samples = 0
	return int64(histSide*histSide) * 8, nil
}

// PreStep is a no-op.
func (k *DensityHist) PreStep(step int) (int64, error) { return 0, nil }

// Analyze bins the species' particles over (x, z) and reduces the grid.
func (k *DensityHist) Analyze(step int) (int64, error) {
	inSp := speciesSet(k.sp)
	var reduced []float64
	err := k.world.Run(func(r *comm.Rank) error {
		mine := make([]float64, histSide*histSide)
		for i := r.ID(); i < k.sys.N; i += r.Size() {
			if !inSp[k.sys.Type[i]] {
				continue
			}
			bx := int(k.sys.Pos[i][0] / k.sys.Box[0] * float64(histSide))
			bz := int(k.sys.Pos[i][2] / k.sys.Box[2] * float64(histSide))
			if bx >= histSide {
				bx = histSide - 1
			}
			if bz >= histSide {
				bz = histSide - 1
			}
			mine[bx*histSide+bz]++
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
	for c := range k.grid {
		k.grid[c] += reduced[c]
	}
	k.samples++
	return int64(k.ranks) * int64(histSide*histSide) * 8, nil
}

// Output writes the averaged grid in a compact binary-ish text form and
// resets the accumulation.
func (k *DensityHist) Output(dst io.Writer) (int64, error) {
	var written int64
	n, err := fmt.Fprintf(dst, "# %s %dx%d samples=%d\n", k.name, histSide, histSide, k.samples)
	if err != nil {
		return written, err
	}
	written += int64(n)
	for x := 0; x < histSide; x++ {
		for z := 0; z < histSide; z++ {
			v := 0.0
			if k.samples > 0 {
				v = k.grid[x*histSide+z] / float64(k.samples)
			}
			var m int
			if z == histSide-1 {
				m, err = fmt.Fprintf(dst, "%.3f\n", v)
			} else {
				m, err = fmt.Fprintf(dst, "%.3f ", v)
			}
			if err != nil {
				return written, err
			}
			written += int64(m)
		}
	}
	k.resetAccum()
	return written, nil
}

// Free clears the accumulated grid contents.
func (k *DensityHist) Free() { k.resetAccum() }

func (k *DensityHist) resetAccum() {
	for c := range k.grid {
		k.grid[c] = 0
	}
	k.samples = 0
}

// Total returns the accumulated particle count in the grid (for tests).
func (k *DensityHist) Total() float64 {
	t := 0.0
	for _, v := range k.grid {
		t += v
	}
	return t
}

// Samples returns the analysis steps accumulated since the last output.
func (k *DensityHist) Samples() int { return k.samples }
