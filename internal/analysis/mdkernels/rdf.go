// Package mdkernels implements the in-situ analysis routines of the paper's
// two LAMMPS problems (Tables 2 and 3): radial distribution functions (A1,
// A2), velocity auto-correlation (A3), mean-square displacement (A4), radius
// of gyration (R1), and 2D density histograms of the membrane and protein
// (R2, R3). Every kernel reduces across a group of worker ranks with
// MPI-style collectives from package comm, exactly where the original codes
// call MPI_Allreduce, so the communication structure the paper profiles is
// present in the reproduction.
package mdkernels

import (
	"fmt"
	"io"
	"math"

	"insitu/internal/comm"
	"insitu/internal/sim/md"
)

// PairSpec selects an RDF pair: distances from species A particles to
// particles of any species in B.
type PairSpec struct {
	Label string
	A     md.Species
	B     []md.Species
}

// RDF accumulates radial distribution functions g(r) for a set of species
// pairs, averaged over all molecules of species A (Table 2: analyses A1 and
// A2). Histograms are accumulated locally per rank over a stripe of the A
// group and summed with Allreduce.
type RDF struct {
	name  string
	sys   *md.System
	pairs []PairSpec
	bins  int
	ranks int

	hist    [][]float64 // fixed allocation: pairs x bins
	samples int
	world   *comm.World
	groups  [][]int // A-group indices per pair
}

// RDFConfig tunes an RDF kernel. g(r) is histogrammed out to the system's
// interaction cutoff.
type RDFConfig struct {
	Bins  int // histogram bins (default 128)
	Ranks int // reduction ranks (default 4)
}

func (c RDFConfig) withDefaults() RDFConfig {
	if c.Bins == 0 {
		c.Bins = 128
	}
	if c.Ranks == 0 {
		c.Ranks = 4
	}
	return c
}

// NewRDF builds an RDF kernel over explicit pairs.
func NewRDF(name string, sys *md.System, pairs []PairSpec, cfg RDFConfig) (*RDF, error) {
	cfg = cfg.withDefaults()
	if len(pairs) == 0 {
		return nil, fmt.Errorf("mdkernels: RDF %q needs at least one pair", name)
	}
	w, err := comm.NewWorld(cfg.Ranks)
	if err != nil {
		return nil, err
	}
	return &RDF{
		name: name, sys: sys, pairs: pairs,
		bins: cfg.Bins, ranks: cfg.Ranks, world: w,
	}, nil
}

// NewHydroniumRDF builds analysis A1: hydronium-water, hydronium-hydronium,
// and hydronium-ion RDFs averaged over all molecules.
func NewHydroniumRDF(sys *md.System, cfg RDFConfig) (*RDF, error) {
	return NewRDF("A1 hydronium rdf", sys, []PairSpec{
		{Label: "hydronium-water", A: md.Hydronium, B: []md.Species{md.Water}},
		{Label: "hydronium-hydronium", A: md.Hydronium, B: []md.Species{md.Hydronium}},
		{Label: "hydronium-ion", A: md.Hydronium, B: []md.Species{md.Cation, md.Anion}},
	}, cfg)
}

// NewIonRDF builds analysis A2: ion-water and ion-ion RDFs.
func NewIonRDF(sys *md.System, cfg RDFConfig) (*RDF, error) {
	return NewRDF("A2 ion rdf", sys, []PairSpec{
		{Label: "cation-water", A: md.Cation, B: []md.Species{md.Water}},
		{Label: "anion-water", A: md.Anion, B: []md.Species{md.Water}},
		{Label: "cation-anion", A: md.Cation, B: []md.Species{md.Anion}},
	}, cfg)
}

// Name implements analysis.Kernel.
func (k *RDF) Name() string { return k.name }

// Setup allocates the fixed histograms and group index lists.
func (k *RDF) Setup() (int64, error) {
	k.hist = make([][]float64, len(k.pairs))
	bytes := int64(0)
	for p := range k.pairs {
		k.hist[p] = make([]float64, k.bins)
		bytes += int64(k.bins) * 8
	}
	k.groups = make([][]int, len(k.pairs))
	for p, spec := range k.pairs {
		k.groups[p] = k.sys.IndicesOf(spec.A)
		bytes += int64(len(k.groups[p])) * 8
	}
	k.samples = 0
	return bytes, nil
}

// PreStep is a no-op: RDFs need no per-step facilitation.
func (k *RDF) PreStep(step int) (int64, error) { return 0, nil }

// Analyze bins all A-B distances within md.Cutoff into the histograms. Each rank
// processes a stripe of the A group and contributes via Allreduce.
func (k *RDF) Analyze(step int) (int64, error) {
	k.sys.PrepareNeighbors()
	results := make([][]float64, len(k.pairs))
	scratch := int64(0)
	for p := range k.pairs {
		spec := k.pairs[p]
		group := k.groups[p]
		inB := speciesSet(spec.B)
		var reduced []float64
		err := k.world.Run(func(r *comm.Rank) error {
			mine := make([]float64, k.bins)
			for gi := r.ID(); gi < len(group); gi += r.Size() {
				i := group[gi]
				k.sys.ForEachNeighbor(i, func(j int, r2 float64) {
					if !inB[k.sys.Type[j]] {
						return
					}
					b := int(math.Sqrt(r2) / md.Cutoff * float64(k.bins))
					if b >= k.bins {
						b = k.bins - 1
					}
					mine[b]++
				})
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
		results[p] = reduced
		scratch += int64(k.ranks*k.bins) * 8
	}
	for p := range k.pairs {
		for b := 0; b < k.bins; b++ {
			k.hist[p][b] += results[p][b]
		}
	}
	k.samples++
	return scratch, nil
}

// Output writes normalized g(r) curves and resets the accumulators.
func (k *RDF) Output(dst io.Writer) (int64, error) {
	var written int64
	dr := md.Cutoff / float64(k.bins)
	rho := float64(k.sys.N) / (k.sys.Box[0] * k.sys.Box[1] * k.sys.Box[2])
	for p, spec := range k.pairs {
		nA := len(k.groups[p])
		n, err := fmt.Fprintf(dst, "# %s pair %s nA=%d samples=%d\n", k.name, spec.Label, nA, k.samples)
		if err != nil {
			return written, err
		}
		written += int64(n)
		for b := 0; b < k.bins; b++ {
			r0 := float64(b) * dr
			shell := 4.0 / 3.0 * math.Pi * (math.Pow(r0+dr, 3) - math.Pow(r0, 3))
			g := 0.0
			if k.samples > 0 && nA > 0 && shell > 0 {
				g = k.hist[p][b] / float64(k.samples) / float64(nA) / (shell * rho)
			}
			n, err := fmt.Fprintf(dst, "%.4f %.6f\n", r0+dr/2, g)
			if err != nil {
				return written, err
			}
			written += int64(n)
		}
	}
	k.resetAccum()
	return written, nil
}

// Free drops accumulated histogram contents (keeps the fixed allocation).
func (k *RDF) Free() { k.resetAccum() }

func (k *RDF) resetAccum() {
	for p := range k.hist {
		for b := range k.hist[p] {
			k.hist[p][b] = 0
		}
	}
	k.samples = 0
}

// Samples returns how many analysis steps have accumulated since the last
// output.
func (k *RDF) Samples() int { return k.samples }

func speciesSet(sps []md.Species) map[md.Species]bool {
	m := make(map[md.Species]bool, len(sps))
	for _, s := range sps {
		m[s] = true
	}
	return m
}
