package md

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func waterSystem(t *testing.T, n int) *System {
	t.Helper()
	s, err := NewWaterIons(Config{NAtoms: n, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWaterIonsComposition(t *testing.T) {
	s := waterSystem(t, 2000)
	if s.N != 2000 {
		t.Fatalf("N = %d", s.N)
	}
	nh := s.CountType(Hydronium)
	nc := s.CountType(Cation)
	na := s.CountType(Anion)
	nw := s.CountType(Water)
	if nh != 20 || nc != 10 || na != 10 {
		t.Fatalf("hydronium=%d cation=%d anion=%d", nh, nc, na)
	}
	if nw+nh+nc+na != s.N {
		t.Fatalf("species do not partition the system")
	}
	if s.CountType(Protein) != 0 || s.CountType(Membrane) != 0 {
		t.Fatal("water+ions must not contain protein or membrane")
	}
}

func TestWaterIonsTooSmall(t *testing.T) {
	if _, err := NewWaterIons(Config{NAtoms: 10}); err == nil {
		t.Fatal("expected error for tiny system")
	}
}

func TestRhodopsinLayout(t *testing.T) {
	s, err := NewRhodopsin(Config{NAtoms: 4000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	np := s.CountType(Protein)
	nm := s.CountType(Membrane)
	nw := s.CountType(Water)
	if np == 0 || nm == 0 || nw == 0 {
		t.Fatalf("protein=%d membrane=%d water=%d; all must be present", np, nm, nw)
	}
	if s.CountType(Cation)+s.CountType(Anion) == 0 {
		t.Fatal("ions missing")
	}
	// Protein must be concentrated near the center, membrane near mid-z.
	center := Vec3{s.Box[0] / 2, s.Box[1] / 2, s.Box[2] / 2}
	for _, i := range s.IndicesOf(Protein) {
		if s.Pos[i].Sub(center).Norm2() > 0.15*s.Box[2]*0.15*s.Box[2]*3 {
			t.Fatalf("protein particle %d far from center", i)
		}
	}
	for _, i := range s.IndicesOf(Membrane) {
		if math.Abs(s.Pos[i][2]-center[2]) > 0.09*s.Box[2] {
			t.Fatalf("membrane particle %d outside slab: z=%g", i, s.Pos[i][2])
		}
	}
	if _, err := NewRhodopsin(Config{NAtoms: 10}); err == nil {
		t.Fatal("expected error for tiny system")
	}
}

func TestPositionsInsideBox(t *testing.T) {
	s := waterSystem(t, 1000)
	s.Run(5, 0.002)
	for i := 0; i < s.N; i++ {
		for d := 0; d < 3; d++ {
			if s.Pos[i][d] < 0 || s.Pos[i][d] >= s.Box[d] {
				t.Fatalf("particle %d outside box: %v", i, s.Pos[i])
			}
		}
	}
}

func TestEnergyConservationNVE(t *testing.T) {
	s := waterSystem(t, 864)
	// Short equilibration with thermostat, then NVE.
	for k := 0; k < 20; k++ {
		s.Step(0.002)
		s.Rescale(1.0)
	}
	s.ComputeForces()
	e0 := s.TotalEnergy()
	s.Run(100, 0.002)
	e1 := s.TotalEnergy()
	drift := math.Abs(e1-e0) / math.Abs(e0)
	if drift > 0.02 {
		t.Fatalf("energy drift %.3f%% over 100 NVE steps (e0=%g e1=%g)", drift*100, e0, e1)
	}
}

func TestMomentumConservation(t *testing.T) {
	s := waterSystem(t, 500)
	p0 := s.Momentum()
	if math.Sqrt(p0.Norm2()) > 1e-9 {
		t.Fatalf("initial momentum not removed: %v", p0)
	}
	s.Run(50, 0.002)
	p1 := s.Momentum()
	if math.Sqrt(p1.Norm2()) > 1e-6*float64(s.N) {
		t.Fatalf("momentum drift: %v", p1)
	}
}

func TestNewtonThirdLaw(t *testing.T) {
	// Total force must vanish (sum of internal pair forces).
	s := waterSystem(t, 700)
	s.ComputeForces()
	var f Vec3
	for i := 0; i < s.N; i++ {
		f = f.Add(s.Force[i])
	}
	if math.Sqrt(f.Norm2()) > 1e-7*float64(s.N) {
		t.Fatalf("net force %v nonzero", f)
	}
}

func TestForceDeterminism(t *testing.T) {
	// Parallel force evaluation must be deterministic for fixed positions.
	s1 := waterSystem(t, 800)
	s2 := waterSystem(t, 800)
	s1.ComputeForces()
	s2.ComputeForces()
	for i := 0; i < s1.N; i++ {
		if s1.Force[i] != s2.Force[i] {
			t.Fatalf("forces differ at %d: %v vs %v", i, s1.Force[i], s2.Force[i])
		}
	}
	if s1.PotEnergy != s2.PotEnergy {
		t.Fatalf("potential energy differs: %g vs %g", s1.PotEnergy, s2.PotEnergy)
	}
}

// dilute returns a system of n atoms, positions unset, in the box of reduced
// number density rho, roomy enough to place a few atoms by hand.
func dilute(n int, rho float64) *System {
	s := newSystem(n)
	l := math.Cbrt(float64(n) / rho)
	s.Box = Vec3{l, l, l}
	return s
}

func TestTwoParticleForceAnalytic(t *testing.T) {
	// Two water particles at distance r: F = 24 eps (2 (s/r)^12 - (s/r)^6)/r.
	s := dilute(2, 0.001)
	s.Type[0], s.Type[1] = Water, Water
	r := 1.2
	s.Pos[0] = Vec3{5, 5, 5}
	s.Pos[1] = Vec3{5 + r, 5, 5}
	s.ComputeForces()
	sr6 := math.Pow(1/r, 6)
	sr12 := sr6 * sr6
	want := 24 * (2*sr12 - sr6) / r
	got := s.Force[1][0] // force on particle 1 along +x
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("force = %g, want %g", got, want)
	}
	if math.Abs(s.Force[0][0]+got) > 1e-12 {
		t.Fatal("pair forces not equal and opposite")
	}
	wantPot := 4 * (sr12 - sr6)
	if math.Abs(s.PotEnergy-wantPot) > 1e-9*math.Abs(wantPot) {
		t.Fatalf("potential = %g, want %g", s.PotEnergy, wantPot)
	}
}

func TestCutoffRespected(t *testing.T) {
	s := dilute(2, 0.0001)
	s.Type[0], s.Type[1] = Water, Water
	s.Pos[0] = Vec3{1, 1, 1}
	s.Pos[1] = Vec3{1 + 2.6, 1, 1} // beyond cutoff
	s.ComputeForces()
	if s.Force[0] != (Vec3{}) || s.Force[1] != (Vec3{}) {
		t.Fatalf("forces beyond cutoff: %v %v", s.Force[0], s.Force[1])
	}
	if s.PotEnergy != 0 {
		t.Fatalf("potential beyond cutoff: %g", s.PotEnergy)
	}
}

func TestMinImage(t *testing.T) {
	s := newSystem(1)
	l := s.Box[0]
	d := s.MinImage(Vec3{0.1, 0, 0}, Vec3{l - 0.1, 0, 0})
	if math.Abs(d[0]-0.2) > 1e-12 {
		t.Fatalf("min image dx = %g, want 0.2", d[0])
	}
}

func TestUnwrappedTracksCrossings(t *testing.T) {
	s := newSystem(1)
	s.Type[0] = Water
	s.Pos[0] = Vec3{s.Box[0] - 0.05, 0.5, 0.5}
	start := s.Unwrapped(0)
	// Push the particle across the +x boundary manually.
	s.Pos[0][0] += 0.1
	s.wrap(0)
	end := s.Unwrapped(0)
	if math.Abs(end[0]-start[0]-0.1) > 1e-12 {
		t.Fatalf("unwrapped displacement = %g, want 0.1", end[0]-start[0])
	}
	if s.Pos[0][0] >= s.Box[0] || s.Pos[0][0] < 0 {
		t.Fatal("wrapped position out of box")
	}
}

func TestTemperatureAfterRescale(t *testing.T) {
	s := waterSystem(t, 600)
	s.Rescale(1.5)
	if math.Abs(s.Temperature()-1.5) > 1e-9 {
		t.Fatalf("temperature = %g, want 1.5", s.Temperature())
	}
}

func TestFrameSerialization(t *testing.T) {
	s := waterSystem(t, 100)
	f := s.Frame()
	if len(f) != 600 {
		t.Fatalf("frame length = %d", len(f))
	}
	if float64(f[0]) != float64(float32(s.Pos[0][0])) {
		t.Fatal("frame does not start with particle 0 x")
	}
}

func TestMemoryBytesScalesWithN(t *testing.T) {
	s1 := waterSystem(t, 500)
	s2 := waterSystem(t, 1000)
	if s2.MemoryBytes() != 2*s1.MemoryBytes() {
		t.Fatalf("memory model not linear: %d vs %d", s1.MemoryBytes(), s2.MemoryBytes())
	}
}

func TestSpeciesString(t *testing.T) {
	names := map[Species]string{
		Water: "water", Hydronium: "hydronium", Cation: "cation",
		Anion: "anion", Protein: "protein", Membrane: "membrane",
	}
	for sp, want := range names {
		if sp.String() != want {
			t.Fatalf("%d.String() = %q", sp, sp.String())
		}
	}
	if Species(99).String() == "" {
		t.Fatal("unknown species should still print")
	}
}

// Property: vector algebra identities hold.
func TestVec3Properties(t *testing.T) {
	f := func(ai, bi [3]int16) bool {
		var va, vb Vec3
		for d := 0; d < 3; d++ {
			va[d] = float64(ai[d]) / 16
			vb[d] = float64(bi[d]) / 16
		}
		sum := va.Add(vb)
		if sum.Sub(vb) != va {
			return false
		}
		if math.Abs(va.Dot(vb)-vb.Dot(va)) > 1e-9 {
			return false
		}
		return va.Scale(2).Dot(vb) == 2*va.Dot(vb) || math.Abs(va.Scale(2).Dot(vb)-2*va.Dot(vb)) < 1e-9*math.Abs(va.Dot(vb))
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicBuild(t *testing.T) {
	a := waterSystem(t, 300)
	b := waterSystem(t, 300)
	for i := 0; i < a.N; i++ {
		if a.Pos[i] != b.Pos[i] || a.Vel[i] != b.Vel[i] || a.Type[i] != b.Type[i] {
			t.Fatalf("same seed produced different systems at particle %d", i)
		}
	}
}

func TestRenderSliceFigure3Layout(t *testing.T) {
	s, err := NewRhodopsin(Config{NAtoms: 8000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	out := s.RenderSlice()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 28 {
		t.Fatalf("rendered %d lines", len(lines))
	}
	// Protein glyphs concentrated in the middle rows, membrane in a band,
	// water everywhere else.
	mid := strings.Join(lines[11:17], "")
	if !strings.Contains(mid, "#") {
		t.Fatal("no protein in the central band")
	}
	if !strings.Contains(mid, "=") {
		t.Fatal("no membrane in the central band")
	}
	if strings.Contains(lines[0], "#") || strings.Contains(lines[27], "#") {
		t.Fatal("protein leaked to the slab edges")
	}
	if !strings.Contains(lines[0], ".") || !strings.Contains(lines[27], ".") {
		t.Fatal("no water at the top/bottom")
	}
}

func TestPressureIdealGasLimit(t *testing.T) {
	// At very low density the LJ gas approaches ideal: P ~ rho*T. A water
	// box at density 0.01 and the initial temperature.
	s := dilute(512, 0.01)
	rng := rand.New(rand.NewSource(2))
	s.latticePositions(rng)
	s.maxwellVelocities(rng)
	s.ComputeForces()
	p := s.Pressure()
	rho := float64(s.N) / (s.Box[0] * s.Box[1] * s.Box[2])
	ideal := rho * s.Temperature()
	if math.Abs(p-ideal)/ideal > 0.2 {
		t.Fatalf("dilute pressure %g too far from ideal %g", p, ideal)
	}
}

func TestVirialCountsPairsOnce(t *testing.T) {
	// Two particles: W = f*r exactly.
	s := dilute(2, 0.001)
	s.Type[0], s.Type[1] = Water, Water
	r := 1.3
	s.Pos[0] = Vec3{5, 5, 5}
	s.Pos[1] = Vec3{5 + r, 5, 5}
	s.ComputeForces()
	sr6 := math.Pow(1/r, 6)
	sr12 := sr6 * sr6
	fmag := 24 * (2*sr12 - sr6) / (r * r)
	want := fmag * r * r
	if math.Abs(s.virial-want) > 1e-9*math.Abs(want) {
		t.Fatalf("virial = %g, want %g", s.virial, want)
	}
}

func TestPressurePositiveInLiquid(t *testing.T) {
	s := waterSystem(t, 864)
	s.Run(10, 0.002)
	if math.IsNaN(s.Pressure()) {
		t.Fatal("pressure NaN")
	}
	// The zero-value system reports zero pressure.
	var empty System
	if empty.Pressure() != 0 {
		t.Fatal("empty system pressure must be 0")
	}
}
