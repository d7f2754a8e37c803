// Package md is a coarse-grained molecular-dynamics mini-app standing in for
// LAMMPS, the paper's first evaluation application. Particles interact
// through Lennard-Jones potentials with per-species parameters, integrate
// with velocity Verlet over a periodic box, and are built into the two
// systems the paper studies: water solvating hydronium and two ion species
// (the "water+ions" problem, analyses A1-A4), and a rhodopsin-like layout
// with a compact protein embedded in a membrane slab solvated by water and
// ions (analyses R1-R3, Figure 3).
//
// The substitution from all-atom LAMMPS to single-site coarse-grained beads
// preserves what the scheduling study consumes: a real simulation loop whose
// per-step cost scales with atom count, and real analysis kernels (RDF, MSD,
// VACF, gyration radius, density histograms) whose relative time and memory
// profiles match Figure 4.
package md

import (
	"fmt"
	"math"
	"math/rand"
)

// Vec3 is a 3-vector of coordinates, velocities, or forces.
type Vec3 [3]float64

// Add returns v + u.
func (v Vec3) Add(u Vec3) Vec3 { return Vec3{v[0] + u[0], v[1] + u[1], v[2] + u[2]} }

// Sub returns v - u.
func (v Vec3) Sub(u Vec3) Vec3 { return Vec3{v[0] - u[0], v[1] - u[1], v[2] - u[2]} }

// Scale returns v * s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v[0] * s, v[1] * s, v[2] * s} }

// Dot returns the dot product v·u.
func (v Vec3) Dot(u Vec3) float64 { return v[0]*u[0] + v[1]*u[1] + v[2]*u[2] }

// Norm2 returns |v|^2.
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Species identifies a particle type.
type Species uint8

// Particle species across both benchmark systems.
const (
	Water Species = iota
	Hydronium
	Cation
	Anion
	Protein
	Membrane
	numSpecies
)

// String names the species.
func (s Species) String() string {
	switch s {
	case Water:
		return "water"
	case Hydronium:
		return "hydronium"
	case Cation:
		return "cation"
	case Anion:
		return "anion"
	case Protein:
		return "protein"
	case Membrane:
		return "membrane"
	}
	return fmt.Sprintf("Species(%d)", uint8(s))
}

// SpeciesParams holds per-species mass and Lennard-Jones parameters in
// reduced units.
type SpeciesParams struct {
	Mass  float64
	Eps   float64
	Sigma float64
}

// defaultParams are reduced-unit parameters chosen so the mixture is a
// stable liquid at T* ~ 1 and density rho* ~ 0.7.
var defaultParams = [numSpecies]SpeciesParams{
	Water:     {Mass: 1.0, Eps: 1.0, Sigma: 1.0},
	Hydronium: {Mass: 1.06, Eps: 1.1, Sigma: 1.0},
	Cation:    {Mass: 1.27, Eps: 1.2, Sigma: 0.9},
	Anion:     {Mass: 1.97, Eps: 1.2, Sigma: 1.1},
	Protein:   {Mass: 2.2, Eps: 1.5, Sigma: 1.2},
	Membrane:  {Mass: 1.8, Eps: 1.3, Sigma: 1.1},
}

// System is a periodic molecular system.
type System struct {
	Box    Vec3 // box lengths; particles live in [0, Box)
	N      int
	Pos    []Vec3
	Vel    []Vec3
	Force  []Vec3
	Type   []Species
	Params [numSpecies]SpeciesParams

	// Image counts track periodic wrap crossings so analyses can unwrap
	// trajectories (required by MSD).
	Image []([3]int32)

	// Step counter and accumulated potential energy of the last force
	// evaluation.
	StepCount int
	PotEnergy float64

	virial float64 // pair virial W = 1/2 Σ_i Σ_j f_ij · r_ij of the last force evaluation

	cells  *cellList
	eps    [numSpecies][numSpecies]float64
	sigma2 [numSpecies][numSpecies]float64
}

// Config controls system construction. Every system starts at reduced
// number density 0.7 and reduced temperature 1.0, with an interaction
// cutoff of Cutoff.
type Config struct {
	NAtoms int
	Seed   int64
}

// Reduced number density and initial reduced temperature of a new system.
const (
	density  = 0.7
	initTemp = 1.0
)

// Cutoff is the interaction cutoff radius. It is typed so that a constant
// expression of it rounds as the same expression of a float64 variable does.
const Cutoff float64 = 2.5

// newSystem allocates a system of n atoms in a cubic box at the reduced
// number density, positions unset.
func newSystem(n int) *System {
	l := math.Cbrt(float64(n) / density)
	s := &System{
		Box:    Vec3{l, l, l},
		N:      n,
		Pos:    make([]Vec3, n),
		Vel:    make([]Vec3, n),
		Force:  make([]Vec3, n),
		Type:   make([]Species, n),
		Image:  make([][3]int32, n),
		Params: defaultParams,
	}
	s.buildMixingTables()
	return s
}

// buildMixingTables precomputes Lorentz-Berthelot mixed LJ parameters.
func (s *System) buildMixingTables() {
	for a := Species(0); a < numSpecies; a++ {
		for b := Species(0); b < numSpecies; b++ {
			s.eps[a][b] = math.Sqrt(s.Params[a].Eps * s.Params[b].Eps)
			sig := (s.Params[a].Sigma + s.Params[b].Sigma) / 2
			s.sigma2[a][b] = sig * sig
		}
	}
}

// NewWaterIons builds the paper's first LAMMPS problem: a box of water
// solvating hydronium and two ion species. Roughly 1% of particles are
// hydronium and 0.5% each cations and anions, the rest water.
func NewWaterIons(cfg Config) (*System, error) {
	if cfg.NAtoms < 64 {
		return nil, fmt.Errorf("md: water+ions needs at least 64 atoms, got %d", cfg.NAtoms)
	}
	s := newSystem(cfg.NAtoms)
	rng := rand.New(rand.NewSource(cfg.Seed))
	nHyd := max(1, cfg.NAtoms/100)
	nCat := max(1, cfg.NAtoms/200)
	nAni := max(1, cfg.NAtoms/200)
	for i := 0; i < s.N; i++ {
		s.Type[i] = Water
	}
	// Scatter minority species over distinct random sites.
	perm := rng.Perm(s.N)
	k := 0
	assign := func(sp Species, count int) {
		for c := 0; c < count; c++ {
			s.Type[perm[k]] = sp
			k++
		}
	}
	assign(Hydronium, nHyd)
	assign(Cation, nCat)
	assign(Anion, nAni)

	s.latticePositions(rng)
	s.maxwellVelocities(rng)
	s.ComputeForces()
	return s, nil
}

// NewRhodopsin builds the paper's second LAMMPS problem, mirroring the
// Figure-3 snapshot: a compact protein sphere at the box center, a membrane
// slab spanning the mid-plane, water above and below, and scattered ions.
func NewRhodopsin(cfg Config) (*System, error) {
	if cfg.NAtoms < 256 {
		return nil, fmt.Errorf("md: rhodopsin needs at least 256 atoms, got %d", cfg.NAtoms)
	}
	s := newSystem(cfg.NAtoms)
	rng := rand.New(rand.NewSource(cfg.Seed))
	s.latticePositions(rng)

	// Geometry: membrane slab |z - L/2| < 8% of L, protein sphere of radius
	// ~12% of L at the center, ions sprinkled through the water.
	l := s.Box[2]
	center := Vec3{s.Box[0] / 2, s.Box[1] / 2, s.Box[2] / 2}
	slabHalf := 0.08 * l
	protR2 := 0.12 * l * 0.12 * l
	nIons := max(2, s.N/200)
	for i := 0; i < s.N; i++ {
		d := s.Pos[i].Sub(center)
		switch {
		case d.Norm2() < protR2:
			s.Type[i] = Protein
		case math.Abs(d[2]) < slabHalf:
			s.Type[i] = Membrane
		default:
			s.Type[i] = Water
		}
	}
	for c := 0; c < nIons; c++ {
		i := rng.Intn(s.N)
		if s.Type[i] == Water {
			if c%2 == 0 {
				s.Type[i] = Cation
			} else {
				s.Type[i] = Anion
			}
		}
	}
	s.maxwellVelocities(rng)
	s.ComputeForces()
	return s, nil
}

// latticePositions fills Pos with a jittered simple-cubic lattice.
func (s *System) latticePositions(rng *rand.Rand) {
	side := int(math.Ceil(math.Cbrt(float64(s.N))))
	spacing := s.Box[0] / float64(side)
	i := 0
	for x := 0; x < side && i < s.N; x++ {
		for y := 0; y < side && i < s.N; y++ {
			for z := 0; z < side && i < s.N; z++ {
				jit := func() float64 { return (rng.Float64() - 0.5) * 0.1 * spacing }
				s.Pos[i] = Vec3{
					(float64(x)+0.5)*spacing + jit(),
					(float64(y)+0.5)*spacing + jit(),
					(float64(z)+0.5)*spacing + jit(),
				}
				s.wrap(i)
				i++
			}
		}
	}
}

// maxwellVelocities draws Maxwell-Boltzmann velocities at the initial
// temperature and removes the center-of-mass drift.
func (s *System) maxwellVelocities(rng *rand.Rand) {
	var com Vec3
	var mass float64
	for i := 0; i < s.N; i++ {
		m := s.Params[s.Type[i]].Mass
		sd := math.Sqrt(initTemp / m)
		s.Vel[i] = Vec3{rng.NormFloat64() * sd, rng.NormFloat64() * sd, rng.NormFloat64() * sd}
		com = com.Add(s.Vel[i].Scale(m))
		mass += m
	}
	drift := com.Scale(1 / mass)
	for i := 0; i < s.N; i++ {
		s.Vel[i] = s.Vel[i].Sub(drift)
	}
}

// wrap folds particle i into the periodic box, recording image crossings.
func (s *System) wrap(i int) {
	for d := 0; d < 3; d++ {
		for s.Pos[i][d] < 0 {
			s.Pos[i][d] += s.Box[d]
			s.Image[i][d]--
		}
		for s.Pos[i][d] >= s.Box[d] {
			s.Pos[i][d] -= s.Box[d]
			s.Image[i][d]++
		}
	}
}

// Unwrapped returns the unwrapped position of particle i (periodic images
// unfolded), which MSD analyses require.
func (s *System) Unwrapped(i int) Vec3 {
	return Vec3{
		s.Pos[i][0] + float64(s.Image[i][0])*s.Box[0],
		s.Pos[i][1] + float64(s.Image[i][1])*s.Box[1],
		s.Pos[i][2] + float64(s.Image[i][2])*s.Box[2],
	}
}

// MinImage returns the minimum-image displacement from particle j to i.
func (s *System) MinImage(pi, pj Vec3) Vec3 {
	d := pi.Sub(pj)
	for k := 0; k < 3; k++ {
		if d[k] > s.Box[k]/2 {
			d[k] -= s.Box[k]
		} else if d[k] < -s.Box[k]/2 {
			d[k] += s.Box[k]
		}
	}
	return d
}

// CountType returns the number of particles of the given species.
func (s *System) CountType(sp Species) int {
	n := 0
	for _, t := range s.Type {
		if t == sp {
			n++
		}
	}
	return n
}

// IndicesOf returns the particle indices of the given species.
func (s *System) IndicesOf(sp Species) []int {
	var out []int
	for i, t := range s.Type {
		if t == sp {
			out = append(out, i)
		}
	}
	return out
}

// MemoryBytes estimates the resident bytes of the simulation state.
func (s *System) MemoryBytes() int64 {
	perAtom := int64(3*8*3 + 1 + 12) // pos+vel+force, type, image
	return int64(s.N) * perAtom
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
