package amrkernels

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"insitu/internal/analysis"
	"insitu/internal/sim/amr"
)

func sedov(t *testing.T) *amr.Grid {
	t.Helper()
	g, err := amr.NewSedov(amr.Config{BlocksX: 3, NB: 8})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestVorticityZeroAtRest(t *testing.T) {
	g := sedov(t)
	k, err := NewVorticity(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Setup(); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Analyze(0); err != nil {
		t.Fatal(err)
	}
	// The initial Sedov state has zero velocity everywhere: curl must be 0.
	if got := k.MaxSeries()[0]; got != 0 {
		t.Fatalf("vorticity of static field = %g, want 0", got)
	}
}

func TestVorticityDetectsShear(t *testing.T) {
	g := sedov(t)
	// Impose a shear flow u_x(z): d(u_x)/dz != 0 -> omega_y != 0.
	for _, b := range g.Blocks {
		nb := b.NBCells()
		for i := 0; i <= nb+1; i++ {
			for j := 0; j <= nb+1; j++ {
				for k3 := 0; k3 <= nb+1; k3++ {
					n := b.Idx(i, j, k3)
					z := float64(b.Index[2]*nb + k3)
					b.U[amr.MomX][n] = 0.1 * z * b.U[amr.Dens][n]
				}
			}
		}
	}
	k, err := NewVorticity(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Analyze(0); err != nil {
		t.Fatal(err)
	}
	if k.MaxSeries()[0] <= 0 {
		t.Fatal("shear flow must have nonzero vorticity")
	}
}

func TestVorticityRankInvariance(t *testing.T) {
	g := sedov(t)
	g.Run(8)
	var vals []float64
	for _, ranks := range []int{1, 4} {
		k, err := NewVorticity(g, ranks)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.Analyze(0); err != nil {
			t.Fatal(err)
		}
		vals = append(vals, k.MaxSeries()[0])
	}
	if vals[0] != vals[1] {
		t.Fatalf("max vorticity rank-dependent: %v", vals)
	}
}

func TestL1NormInitialAndEvolved(t *testing.T) {
	g := sedov(t)
	k, err := NewL1Norm(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Analyze(0); err != nil {
		t.Fatal(err)
	}
	v0 := k.Series()[0]
	if v0[0] != 0 {
		t.Fatalf("initial density deviation = %g, want 0 (uniform)", v0[0])
	}
	if v0[1] <= 0 {
		t.Fatalf("initial pressure deviation = %g, want > 0 (blast)", v0[1])
	}
	g.Run(10)
	if _, err := k.Analyze(10); err != nil {
		t.Fatal(err)
	}
	v1 := k.Series()[1]
	if v1[0] <= 0 {
		t.Fatal("evolved shock must perturb density")
	}
	var buf bytes.Buffer
	om, err := k.Output(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if om != int64(buf.Len()) || om == 0 {
		t.Fatalf("om = %d, buffer %d", om, buf.Len())
	}
	if len(k.Series()) != 0 {
		t.Fatal("output must clear the series")
	}
	if !strings.Contains(buf.String(), "L1(dens)") {
		t.Fatal("output missing labels")
	}
}

func TestL2NormVelocities(t *testing.T) {
	g := sedov(t)
	k, err := NewL2Norm(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Analyze(0); err != nil {
		t.Fatal(err)
	}
	v0 := k.Series()[0]
	if v0 != [3]float64{} {
		t.Fatalf("initial velocities = %v, want zero", v0)
	}
	g.Run(12)
	if _, err := k.Analyze(12); err != nil {
		t.Fatal(err)
	}
	v1 := k.Series()[1]
	if v1[0] <= 0 && v1[1] <= 0 && v1[2] <= 0 {
		t.Fatalf("evolved velocities = %v, expected motion", v1)
	}
}

func TestF3MuchCheaperThanF1(t *testing.T) {
	// The cost ordering behind Table 8: ct(F1) > ct(F2) >> ct(F3).
	g := sedov(t)
	g.Run(3)
	step := func() {} // frozen field; we only time the kernels
	k1, _ := NewVorticity(g, 2)
	k2, _ := NewL1Norm(g, 2)
	k3, _ := NewL2Norm(g, 2)
	c1, err := analysis.Measure(k1, step)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := analysis.Measure(k2, step)
	if err != nil {
		t.Fatal(err)
	}
	c3, err := analysis.Measure(k3, step)
	if err != nil {
		t.Fatal(err)
	}
	if c3.CT*5 > c2.CT {
		t.Fatalf("F3 (%v) should be far cheaper than F2 (%v)", c3.CT, c2.CT)
	}
	if c1.CT < c2.CT {
		t.Fatalf("F1 (%v) should cost at least F2 (%v)", c1.CT, c2.CT)
	}
}

func TestKernelInterfaceCompliance(t *testing.T) {
	g := sedov(t)
	ks := []analysis.Kernel{}
	k1, err := NewVorticity(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := NewL1Norm(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	k3, err := NewL2Norm(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	ks = append(ks, k1, k2, k3)
	for _, k := range ks {
		if _, err := k.Setup(); err != nil {
			t.Fatalf("%s setup: %v", k.Name(), err)
		}
		if im, err := k.PreStep(1); err != nil || im != 0 {
			t.Fatalf("%s prestep: %d, %v", k.Name(), im, err)
		}
		if _, err := k.Analyze(1); err != nil {
			t.Fatalf("%s analyze: %v", k.Name(), err)
		}
		var buf bytes.Buffer
		om, err := k.Output(&buf)
		if err != nil || om == 0 {
			t.Fatalf("%s output: %d, %v", k.Name(), om, err)
		}
		k.Free()
	}
}

func TestShockTrackerFollowsBlast(t *testing.T) {
	g := sedov(t)
	k, err := NewShockTracker(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Setup(); err != nil {
		t.Fatal(err)
	}
	g.Run(5)
	if _, err := k.Analyze(5); err != nil {
		t.Fatal(err)
	}
	g.Run(15)
	if _, err := k.Analyze(20); err != nil {
		t.Fatal(err)
	}
	r := k.Radii()
	if len(r) != 2 || r[0] <= 0 || r[1] <= r[0] {
		t.Fatalf("radii not expanding: %v", r)
	}
	// Matches the grid's own serial estimate up to summation order.
	if got, want := r[1], g.ShockRadius(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("tracker %g != serial %g", got, want)
	}
	exp := k.Exponent()
	if exp < 0.1 || exp > 0.8 {
		t.Fatalf("fitted exponent %g implausible for Sedov", exp)
	}
	var buf bytes.Buffer
	om, err := k.Output(&buf)
	if err != nil || om == 0 {
		t.Fatalf("output: %d, %v", om, err)
	}
	if !strings.Contains(buf.String(), "exponent") {
		t.Fatal("exponent line missing")
	}
	if len(k.Radii()) != 0 {
		t.Fatal("output must clear series")
	}
}

func TestShockTrackerExponentNaNCases(t *testing.T) {
	g := sedov(t)
	k, err := NewShockTracker(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v := k.Exponent(); !math.IsNaN(v) {
		t.Fatalf("empty tracker exponent = %g, want NaN", v)
	}
}

func TestRadialProfileShowsShockStructure(t *testing.T) {
	g := sedov(t)
	g.Run(12)
	k, err := NewRadialProfile(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Setup(); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Analyze(0); err != nil {
		t.Fatal(err)
	}
	dens := k.MeanDensity()
	// Sedov structure: evacuated center (below ambient), over-dense shell,
	// ambient far field.
	peak, peakBin := 0.0, 0
	for b, v := range dens {
		if v > peak {
			peak, peakBin = v, b
		}
	}
	if peak <= amr.AmbientDensity {
		t.Fatalf("no over-dense shell: peak %g", peak)
	}
	if dens[0] >= peak {
		t.Fatalf("center density %g should be below the shell peak %g", dens[0], peak)
	}
	if peakBin == 0 || peakBin == len(dens)-1 {
		t.Fatalf("shell at bin %d is not interior", peakBin)
	}
	var buf bytes.Buffer
	om, err := k.Output(&buf)
	if err != nil || om == 0 {
		t.Fatalf("output: %d, %v", om, err)
	}
	if !strings.Contains(buf.String(), "radial profile") {
		t.Fatal("output header missing")
	}
	if k.MeanDensity()[peakBin] != 0 {
		t.Fatal("output must reset shells")
	}
}

// Compliance for the extension kernels.
var (
	_ analysis.Kernel = (*ShockTracker)(nil)
	_ analysis.Kernel = (*RadialProfile)(nil)
)
