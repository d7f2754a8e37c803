package mdkernels

import (
	"fmt"
	"io"
	"math"

	"insitu/internal/comm"
	"insitu/internal/sim/md"
)

// Gyration computes the radius of gyration of the single protein (Table 3:
// analysis R1). The group is tiny relative to the system, so the kernel's
// cost is negligible — the paper measures 0.003 s per step — which is why
// the scheduler always runs R1 at the maximum frequency in Table 6.
type Gyration struct {
	sys   *md.System
	ranks int
	world *comm.World

	group  []int
	series []float64
}

// NewGyration builds analysis R1 over the protein particles.
func NewGyration(sys *md.System, ranks int) (*Gyration, error) {
	if ranks == 0 {
		ranks = 4
	}
	w, err := comm.NewWorld(ranks)
	if err != nil {
		return nil, err
	}
	return &Gyration{sys: sys, ranks: ranks, world: w}, nil
}

// Name implements analysis.Kernel.
func (k *Gyration) Name() string { return "R1 radius of gyration" }

// Setup resolves the protein group.
func (k *Gyration) Setup() (int64, error) {
	k.group = k.sys.IndicesOf(md.Protein)
	if len(k.group) == 0 {
		return 0, fmt.Errorf("mdkernels: gyration needs protein particles")
	}
	return int64(len(k.group)) * 8, nil
}

// PreStep is a no-op.
func (k *Gyration) PreStep(step int) (int64, error) { return 0, nil }

// Analyze computes Rg via two reductions: center of mass, then mass-weighted
// second moment. Unwrapped coordinates keep the compact protein intact
// across periodic boundaries.
func (k *Gyration) Analyze(step int) (int64, error) {
	var rg float64
	err := k.world.Run(func(r *comm.Rank) error {
		// Pass 1: center of mass.
		local := make([]float64, 4)
		for idx := r.ID(); idx < len(k.group); idx += r.Size() {
			i := k.group[idx]
			m := k.sys.Params[k.sys.Type[i]].Mass
			p := k.sys.Unwrapped(i)
			local[0] += m * p[0]
			local[1] += m * p[1]
			local[2] += m * p[2]
			local[3] += m
		}
		sum, err := r.Allreduce(local, comm.Sum)
		if err != nil {
			return err
		}
		com := md.Vec3{sum[0] / sum[3], sum[1] / sum[3], sum[2] / sum[3]}
		// Pass 2: second moment about the center of mass.
		local2 := make([]float64, 2)
		for idx := r.ID(); idx < len(k.group); idx += r.Size() {
			i := k.group[idx]
			m := k.sys.Params[k.sys.Type[i]].Mass
			d := k.sys.Unwrapped(i).Sub(com)
			local2[0] += m * d.Norm2()
			local2[1] += m
		}
		sum2, err := r.Allreduce(local2, comm.Sum)
		if err != nil {
			return err
		}
		if r.ID() == 0 {
			rg = math.Sqrt(sum2[0] / sum2[1])
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	k.series = append(k.series, rg)
	return int64(k.ranks) * 6 * 8, nil
}

// Output writes the Rg series and clears it.
func (k *Gyration) Output(dst io.Writer) (int64, error) {
	var written int64
	n, err := fmt.Fprintf(dst, "# %s n=%d\n", k.Name(), len(k.group))
	if err != nil {
		return written, err
	}
	written += int64(n)
	for i, v := range k.series {
		n, err := fmt.Fprintf(dst, "%d %.6f\n", i, v)
		if err != nil {
			return written, err
		}
		written += int64(n)
	}
	k.Free()
	return written, nil
}

// Free clears the series.
func (k *Gyration) Free() { k.series = nil }

// Series exposes accumulated Rg values (for tests).
func (k *Gyration) Series() []float64 { return k.series }
