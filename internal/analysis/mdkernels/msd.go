package mdkernels

import (
	"fmt"
	"io"

	"insitu/internal/comm"
	"insitu/internal/sim/md"
)

// MSD computes mean-square displacements averaged over all hydronium and
// ions (Table 2: analysis A4). It is the temporal analysis the paper uses to
// motivate the it/im cost components (§3.2): every simulation step it copies
// the group's unwrapped coordinates into a window buffer so that the
// analysis step can evaluate MSD against every buffered snapshot; the buffer
// grows each step and is released at output, which is exactly the
// accumulate-then-reset memory pattern of equations 5-6.
type MSD struct {
	sys   *md.System
	ranks int
	world *comm.World

	group  []int     // particle indices (fixed)
	ref    []md.Vec3 // reference unwrapped positions (fixed)
	window []([]md.Vec3)
	series []float64 // MSD per analysis step since last output
}

// NewMSD builds analysis A4 over the hydronium and ion particles.
func NewMSD(sys *md.System, ranks int) (*MSD, error) {
	if ranks == 0 {
		ranks = 4
	}
	w, err := comm.NewWorld(ranks)
	if err != nil {
		return nil, err
	}
	return &MSD{sys: sys, ranks: ranks, world: w}, nil
}

// Name implements analysis.Kernel.
func (k *MSD) Name() string { return "A4 msd" }

// Setup records the reference positions of the group; this is the large
// fixed pre-allocation the paper attributes to LAMMPS MSD-style analyses.
func (k *MSD) Setup() (int64, error) {
	k.group = k.group[:0]
	for _, sp := range []md.Species{md.Hydronium, md.Cation, md.Anion} {
		k.group = append(k.group, k.sys.IndicesOf(sp)...)
	}
	if len(k.group) == 0 {
		return 0, fmt.Errorf("mdkernels: msd group is empty")
	}
	k.ref = make([]md.Vec3, len(k.group))
	for g, i := range k.group {
		k.ref[g] = k.sys.Unwrapped(i)
	}
	return int64(len(k.group)) * (8 + 24), nil
}

// PreStep snapshots the group's unwrapped positions into the window buffer:
// the per-simulation-step cost it and the accumulating memory im.
func (k *MSD) PreStep(step int) (int64, error) {
	snap := make([]md.Vec3, len(k.group))
	for g, i := range k.group {
		snap[g] = k.sys.Unwrapped(i)
	}
	k.window = append(k.window, snap)
	return int64(len(snap)) * 24, nil
}

// Analyze evaluates the MSD of the latest snapshot (and refreshes the whole
// window average), reducing partial sums across ranks.
func (k *MSD) Analyze(step int) (int64, error) {
	if len(k.window) == 0 {
		if _, err := k.PreStep(step); err != nil {
			return 0, err
		}
	}
	// Partial sums per rank over a stripe of the group, for every buffered
	// snapshot: this O(window x group) loop is what makes A4 expensive and
	// scale-insensitive (the group is small and fixed, so extra ranks do not
	// help — the behavior behind Figure 5).
	sums := make([]float64, len(k.window))
	err := k.world.Run(func(r *comm.Rank) error {
		local := make([]float64, len(k.window)+1)
		for gi := r.ID(); gi < len(k.group); gi += r.Size() {
			for w, snap := range k.window {
				d := snap[gi].Sub(k.ref[gi])
				local[w] += d.Norm2()
			}
			local[len(k.window)]++
		}
		out, err := r.Allreduce(local, comm.Sum)
		if err != nil {
			return err
		}
		if r.ID() == 0 {
			n := out[len(k.window)]
			for w := range sums {
				if n > 0 {
					sums[w] = out[w] / n
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	k.series = append(k.series, sums[len(sums)-1])
	return int64(k.ranks) * int64(len(k.window)+1) * 8, nil
}

// Output writes the MSD series and releases the window buffer.
func (k *MSD) Output(dst io.Writer) (int64, error) {
	var written int64
	n, err := fmt.Fprintf(dst, "# %s group=%d window=%d\n", k.Name(), len(k.group), len(k.window))
	if err != nil {
		return written, err
	}
	written += int64(n)
	for i, v := range k.series {
		n, err := fmt.Fprintf(dst, "%d %.8f\n", i, v)
		if err != nil {
			return written, err
		}
		written += int64(n)
	}
	k.Free()
	return written, nil
}

// Free releases the window and series buffers (back to the fixed ref/group
// allocation, mirroring mEnd reset to fm in equation 6).
func (k *MSD) Free() {
	k.window = nil
	k.series = nil
}

// WindowLen reports the buffered snapshot count (for tests).
func (k *MSD) WindowLen() int { return len(k.window) }

// Series exposes the accumulated MSD values since the last output.
func (k *MSD) Series() []float64 { return k.series }
