package amr

import (
	"math"
	"strings"
	"testing"
)

func sedov(t *testing.T, blocks, nb int) *Grid {
	t.Helper()
	g, err := NewSedov(Config{BlocksX: blocks, NB: nb})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGridGeometry(t *testing.T) {
	g := sedov(t, 3, 8)
	if got := g.NumCells(); got != 27*512 {
		t.Fatalf("cells = %d", got)
	}
	if len(g.Blocks) != 27 {
		t.Fatalf("blocks = %d", len(g.Blocks))
	}
	if math.Abs(g.Dx*float64(3*8)-1.0) > 1e-12 {
		t.Fatalf("domain size = %g", g.Dx*24)
	}
	if g.MemoryBytes() <= 0 {
		t.Fatal("memory estimate must be positive")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewGrid(Config{NB: 2}); err == nil {
		t.Fatal("expected NB error")
	}
	if _, err := NewGrid(Config{BlocksX: -1}); err == nil {
		t.Fatal("expected lattice error")
	}
}

func TestSedovInitialState(t *testing.T) {
	g := sedov(t, 4, 8)
	// Mass = rho * volume = 1.
	if m := g.TotalMass(); math.Abs(m-1) > 1e-9 {
		t.Fatalf("initial mass = %g, want 1", m)
	}
	// Blast energy ~1 plus tiny ambient internal energy.
	e := g.TotalEnergy()
	if e < 0.9 || e > 1.2 {
		t.Fatalf("initial energy = %g, want ~1", e)
	}
	// Pressure peak at center.
	var center *Block
	for _, b := range g.Blocks {
		if b.Index == [3]int{2, 2, 2} {
			center = b
		}
	}
	_, _, _, _, p := g.Primitive(center, center.idx(1, 1, 1))
	if p <= AmbientPressure {
		t.Fatalf("central pressure %g not above ambient", p)
	}
}

func TestMassConservedBeforeShockExits(t *testing.T) {
	g := sedov(t, 3, 8)
	m0 := g.TotalMass()
	e0 := g.TotalEnergy()
	g.Run(10)
	m1 := g.TotalMass()
	e1 := g.TotalEnergy()
	if math.Abs(m1-m0)/m0 > 1e-6 {
		t.Fatalf("mass drift: %g -> %g", m0, m1)
	}
	if math.Abs(e1-e0)/e0 > 1e-6 {
		t.Fatalf("energy drift: %g -> %g", e0, e1)
	}
}

func TestDensityStaysPositive(t *testing.T) {
	g := sedov(t, 3, 8)
	g.Run(20)
	for _, b := range g.Blocks {
		for i := 1; i <= b.nb; i++ {
			for j := 1; j <= b.nb; j++ {
				for k := 1; k <= b.nb; k++ {
					n := b.idx(i, j, k)
					if b.U[Dens][n] <= 0 {
						t.Fatalf("non-positive density at block %v cell %d,%d,%d", b.Index, i, j, k)
					}
					if math.IsNaN(b.U[Ener][n]) {
						t.Fatalf("NaN energy at block %v", b.Index)
					}
				}
			}
		}
	}
}

func TestShockExpands(t *testing.T) {
	g := sedov(t, 4, 8)
	g.Run(5)
	r1 := g.ShockRadius()
	g.Run(15)
	r2 := g.ShockRadius()
	if r1 <= 0 || r2 <= r1 {
		t.Fatalf("shock radius not expanding: %g -> %g", r1, r2)
	}
}

func TestSedovScalingExponent(t *testing.T) {
	// R(t) ~ t^(2/5). With a first-order scheme on a coarse grid the fitted
	// exponent is loose; accept 0.2..0.6.
	g := sedov(t, 4, 10)
	g.Run(8)
	t1, r1 := g.Time, g.ShockRadius()
	g.Run(24)
	t2, r2 := g.Time, g.ShockRadius()
	if r1 <= 0 || r2 <= r1 {
		t.Fatalf("radii %g -> %g", r1, r2)
	}
	exp := math.Log(r2/r1) / math.Log(t2/t1)
	if exp < 0.2 || exp > 0.6 {
		t.Fatalf("fitted R~t^a exponent a = %g, want ~0.4", exp)
	}
}

func TestSphericalSymmetry(t *testing.T) {
	g := sedov(t, 4, 8)
	g.Run(10)
	// Density must match at +x/-x mirrored cells about the center.
	probe := func(bi, i int) float64 {
		for _, b := range g.Blocks {
			if b.Index == [3]int{bi, 2, 2} {
				return b.U[Dens][b.idx(i, 1, 1)]
			}
		}
		t.Fatalf("block %d not found", bi)
		return 0
	}
	left := probe(0, 3)  // cell 3 of block 0 -> global cell index 2 (interior i-1)
	right := probe(3, 6) // symmetric position on the +x side
	if math.Abs(left-right) > 1e-9*math.Max(left, 1) {
		t.Fatalf("asymmetry: left=%g right=%g", left, right)
	}
}

func TestStepDeterministic(t *testing.T) {
	a := sedov(t, 3, 8)
	b := sedov(t, 3, 8)
	a.Run(5)
	b.Run(5)
	for id := range a.Blocks {
		for v := 0; v < NumVars; v++ {
			for n := range a.Blocks[id].U[v] {
				if a.Blocks[id].U[v][n] != b.Blocks[id].U[v][n] {
					t.Fatalf("nondeterminism at block %d var %d cell %d", id, v, n)
				}
			}
		}
	}
}

func TestGhostExchangeContinuity(t *testing.T) {
	g := sedov(t, 2, 8)
	g.FillGhosts()
	// Ghost of block (0,0,0) +x face must equal interior of block (1,0,0).
	b0 := g.Blocks[g.blockID(0, 0, 0)]
	b1 := g.Blocks[g.blockID(1, 0, 0)]
	for j := 1; j <= 8; j++ {
		for k := 1; k <= 8; k++ {
			want := b1.U[Dens][b1.idx(1, j, k)]
			got := b0.U[Dens][b0.idx(9, j, k)]
			if got != want {
				t.Fatalf("ghost mismatch at j=%d k=%d: %g vs %g", j, k, got, want)
			}
		}
	}
}

func TestMaxWaveSpeedPositive(t *testing.T) {
	g := sedov(t, 3, 8)
	s := g.MaxWaveSpeed()
	if s <= 0 {
		t.Fatalf("wave speed = %g", s)
	}
	dt := g.StepCFL()
	if dt <= 0 || dt > cfl*g.Dx/s*1.0001 {
		t.Fatalf("dt = %g violates CFL (s=%g)", dt, s)
	}
	if g.StepCount != 1 || g.Time != dt {
		t.Fatalf("step bookkeeping: count=%d time=%g", g.StepCount, g.Time)
	}
}

func TestPrimitiveRoundTrip(t *testing.T) {
	g := sedov(t, 2, 8)
	b := g.Blocks[0]
	n := b.idx(4, 4, 4)
	rho, u, v, w, p := g.Primitive(b, n)
	if rho != 1.0 {
		t.Fatalf("rho = %g", rho)
	}
	if u != 0 || v != 0 || w != 0 {
		t.Fatalf("velocities nonzero at rest: %g %g %g", u, v, w)
	}
	if math.Abs(p-AmbientPressure) > 1e-15 {
		t.Fatalf("p = %g", p)
	}
	// Zero density must not panic.
	b.U[Dens][n] = 0
	rho, _, _, _, _ = g.Primitive(b, n)
	if rho != 0 {
		t.Fatal("zero density mishandled")
	}
}

func TestRenderSliceShowsShell(t *testing.T) {
	g := sedov(t, 3, 8)
	g.Run(12)
	out := g.RenderSlice()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 28 {
		t.Fatalf("lines = %d", len(lines))
	}
	// The over-dense shell must produce dark ramp characters somewhere, and
	// the corners (undisturbed ambient) light ones.
	if !strings.ContainsAny(out, "#%@") {
		t.Fatal("no high-density characters in render")
	}
	corner := lines[0][:3]
	if strings.ContainsAny(corner, "#%@") {
		t.Fatalf("corner should be ambient, got %q", corner)
	}
}
