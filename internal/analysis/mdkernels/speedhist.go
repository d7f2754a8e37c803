package mdkernels

import (
	"fmt"
	"io"
	"math"

	"insitu/internal/comm"
	"insitu/internal/sim/md"
)

// SpeedHistogram accumulates the distribution of particle speeds — another
// §2.2 descriptive statistic, and a physics check: an equilibrated liquid
// must follow the Maxwell-Boltzmann distribution
//
//	f(v) dv ∝ v^2 exp(-m v^2 / (2T)) dv.
//
// Each rank bins a stripe of particles; the histograms combine with
// Allreduce.
type SpeedHistogram struct {
	sys   *md.System
	ranks int
	world *comm.World

	hist    []float64
	samples int
}

// The histogram has speedBins bins up to speedVmax, about 4 sigma of a T*=1
// distribution for unit mass.
const (
	speedBins         = 64
	speedVmax float64 = 4
)

// NewSpeedHistogram builds the kernel.
func NewSpeedHistogram(sys *md.System, ranks int) (*SpeedHistogram, error) {
	if ranks == 0 {
		ranks = 4
	}
	w, err := comm.NewWorld(ranks)
	if err != nil {
		return nil, err
	}
	return &SpeedHistogram{sys: sys, ranks: ranks, world: w}, nil
}

// Name implements analysis.Kernel.
func (k *SpeedHistogram) Name() string { return "speed histogram" }

// Setup allocates the fixed histogram.
func (k *SpeedHistogram) Setup() (int64, error) {
	k.hist = make([]float64, speedBins)
	k.samples = 0
	return int64(speedBins) * 8, nil
}

// PreStep is a no-op.
func (k *SpeedHistogram) PreStep(step int) (int64, error) { return 0, nil }

// Analyze bins all particle speeds and reduces across ranks.
func (k *SpeedHistogram) Analyze(step int) (int64, error) {
	var reduced []float64
	err := k.world.Run(func(r *comm.Rank) error {
		mine := make([]float64, speedBins)
		for i := r.ID(); i < k.sys.N; i += r.Size() {
			v := math.Sqrt(k.sys.Vel[i].Norm2())
			b := int(v / speedVmax * float64(speedBins))
			if b >= speedBins {
				b = speedBins - 1
			}
			mine[b]++
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
	for b := range k.hist {
		k.hist[b] += reduced[b]
	}
	k.samples++
	return int64(k.ranks*speedBins) * 8, nil
}

// Output writes the normalized distribution with the Maxwell-Boltzmann
// reference at the system temperature, then resets.
func (k *SpeedHistogram) Output(dst io.Writer) (int64, error) {
	var written int64
	temp := k.sys.Temperature()
	n, err := fmt.Fprintf(dst, "# speed histogram samples=%d T=%.4f (columns: v, f(v), maxwell-boltzmann)\n",
		k.samples, temp)
	if err != nil {
		return written, err
	}
	written += int64(n)
	total := 0.0
	for _, c := range k.hist {
		total += c
	}
	dv := speedVmax / float64(speedBins)
	for b := 0; b < speedBins; b++ {
		v := (float64(b) + 0.5) * dv
		f := 0.0
		if total > 0 {
			f = k.hist[b] / total / dv
		}
		n, err := fmt.Fprintf(dst, "%.4f %.6f %.6f\n", v, f, MaxwellBoltzmann(v, temp))
		if err != nil {
			return written, err
		}
		written += int64(n)
	}
	k.Free()
	return written, nil
}

// Free resets the accumulated histogram.
func (k *SpeedHistogram) Free() {
	for b := range k.hist {
		k.hist[b] = 0
	}
	k.samples = 0
}

// Distribution returns the normalized density f(v) per bin (for tests).
func (k *SpeedHistogram) Distribution() []float64 {
	total := 0.0
	for _, c := range k.hist {
		total += c
	}
	dv := speedVmax / float64(speedBins)
	out := make([]float64, speedBins)
	if total == 0 {
		return out
	}
	for b := range out {
		out[b] = k.hist[b] / total / dv
	}
	return out
}

// BinCenters returns the speed at each bin center.
func (k *SpeedHistogram) BinCenters() []float64 {
	dv := speedVmax / float64(speedBins)
	out := make([]float64, speedBins)
	for b := range out {
		out[b] = (float64(b) + 0.5) * dv
	}
	return out
}

// MaxwellBoltzmann returns the equilibrium speed density f(v) for unit mass
// at reduced temperature T.
func MaxwellBoltzmann(v, temp float64) float64 {
	if temp <= 0 {
		return 0
	}
	a := 1 / (2 * temp)
	norm := 4 * math.Pi * math.Pow(1/(2*math.Pi*temp), 1.5)
	return norm * v * v * math.Exp(-a*v*v)
}
