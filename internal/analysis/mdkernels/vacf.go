package mdkernels

import (
	"fmt"
	"io"

	"insitu/internal/comm"
	"insitu/internal/sim/md"
)

// VACF computes velocity auto-correlation functions for the water,
// hydronium, and ion groups (Table 2: analysis A3). Each Analyze evaluates
// C(t) = <v(0)·v(t)> / <v(0)·v(0)> per group against reference velocities
// captured at setup, reducing partial dot products across ranks. Water is
// strided so the kernel cost stays moderate relative to A4, matching the
// Figure-4 profile: it samples every 16th water particle.
type VACF struct {
	sys   *md.System
	ranks int
	world *comm.World

	groups [][]int
	labels []string
	v0     [][]md.Vec3
	norm   []float64 // <v0·v0> per group
	series [][]float64
}

// NewVACF builds analysis A3.
func NewVACF(sys *md.System, ranks int) (*VACF, error) {
	if ranks == 0 {
		ranks = 4
	}
	w, err := comm.NewWorld(ranks)
	if err != nil {
		return nil, err
	}
	return &VACF{sys: sys, ranks: ranks, world: w}, nil
}

// Name implements analysis.Kernel.
func (k *VACF) Name() string { return "A3 vacf" }

// Setup captures reference velocities per group.
func (k *VACF) Setup() (int64, error) {
	water := k.sys.IndicesOf(md.Water)
	strided := water[:0:0]
	for i := 0; i < len(water); i += 16 {
		strided = append(strided, water[i])
	}
	ions := append(k.sys.IndicesOf(md.Cation), k.sys.IndicesOf(md.Anion)...)
	k.groups = [][]int{strided, k.sys.IndicesOf(md.Hydronium), ions}
	k.labels = []string{"water", "hydronium", "ion"}

	var bytes int64
	k.v0 = make([][]md.Vec3, len(k.groups))
	k.norm = make([]float64, len(k.groups))
	for g, group := range k.groups {
		k.v0[g] = make([]md.Vec3, len(group))
		for idx, i := range group {
			k.v0[g][idx] = k.sys.Vel[i]
			k.norm[g] += k.sys.Vel[i].Norm2()
		}
		if n := float64(len(group)); n > 0 {
			k.norm[g] /= n
		}
		bytes += int64(len(group)) * (24 + 8)
	}
	k.series = make([][]float64, len(k.groups))
	return bytes, nil
}

// PreStep is a no-op: velocities are already in simulation memory, the
// convenience the paper cites for analyzing in-situ (§1).
func (k *VACF) PreStep(step int) (int64, error) { return 0, nil }

// Analyze evaluates the normalized correlation per group via Allreduce.
func (k *VACF) Analyze(step int) (int64, error) {
	vals := make([]float64, len(k.groups))
	err := k.world.Run(func(r *comm.Rank) error {
		local := make([]float64, len(k.groups))
		for g, group := range k.groups {
			for idx := r.ID(); idx < len(group); idx += r.Size() {
				local[g] += k.v0[g][idx].Dot(k.sys.Vel[group[idx]])
			}
		}
		out, err := r.Allreduce(local, comm.Sum)
		if err != nil {
			return err
		}
		if r.ID() == 0 {
			copy(vals, out)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	for g := range k.groups {
		c := 0.0
		if n := float64(len(k.groups[g])); n > 0 && k.norm[g] != 0 {
			c = vals[g] / n / k.norm[g]
		}
		k.series[g] = append(k.series[g], c)
	}
	return int64(k.ranks) * int64(len(k.groups)) * 8, nil
}

// Output writes the correlation series per group and clears them.
func (k *VACF) Output(dst io.Writer) (int64, error) {
	var written int64
	for g, label := range k.labels {
		n, err := fmt.Fprintf(dst, "# %s group %s n=%d\n", k.Name(), label, len(k.groups[g]))
		if err != nil {
			return written, err
		}
		written += int64(n)
		for i, c := range k.series[g] {
			n, err := fmt.Fprintf(dst, "%d %.8f\n", i, c)
			if err != nil {
				return written, err
			}
			written += int64(n)
		}
	}
	k.Free()
	return written, nil
}

// Free clears the accumulated series.
func (k *VACF) Free() {
	for g := range k.series {
		k.series[g] = nil
	}
}

// Series exposes the correlation series for group g (for tests).
func (k *VACF) Series(g int) []float64 { return k.series[g] }
