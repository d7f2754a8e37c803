package mdkernels

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"insitu/internal/analysis"
	"insitu/internal/sim/md"
)

func waterSys(t *testing.T, n int) *md.System {
	t.Helper()
	s, err := md.NewWaterIons(md.Config{NAtoms: n, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func rhodoSys(t *testing.T, n int) *md.System {
	t.Helper()
	s, err := md.NewRhodopsin(md.Config{NAtoms: n, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestHydroniumRDFLifecycle(t *testing.T) {
	sys := waterSys(t, 2000)
	k, err := NewHydroniumRDF(sys, RDFConfig{Bins: 32, Ranks: 3})
	if err != nil {
		t.Fatal(err)
	}
	fm, err := k.Setup()
	if err != nil {
		t.Fatal(err)
	}
	if fm <= 0 {
		t.Fatal("fixed memory must be positive")
	}
	if im, _ := k.PreStep(1); im != 0 {
		t.Fatalf("rdf prestep allocated %d", im)
	}
	if _, err := k.Analyze(1); err != nil {
		t.Fatal(err)
	}
	if k.Samples() != 1 {
		t.Fatalf("samples = %d", k.Samples())
	}
	// Hydronium-water histogram must contain counts: a dense liquid has
	// many neighbors within the cutoff.
	total := 0.0
	for _, v := range k.hist[0] {
		total += v
	}
	if total == 0 {
		t.Fatal("hydronium-water histogram empty")
	}
	var buf bytes.Buffer
	om, err := k.Output(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if om != int64(buf.Len()) {
		t.Fatalf("om = %d, wrote %d", om, buf.Len())
	}
	if !strings.Contains(buf.String(), "hydronium-water") {
		t.Fatal("output missing pair label")
	}
	if k.Samples() != 0 {
		t.Fatal("output must reset accumulation")
	}
}

func TestRDFDeterministicAcrossRankCounts(t *testing.T) {
	// Histogram counts are integers: rank partitioning must not change them.
	sys := waterSys(t, 1500)
	var totals []float64
	for _, ranks := range []int{1, 2, 5} {
		k, err := NewIonRDF(sys, RDFConfig{Bins: 24, Ranks: ranks})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.Setup(); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Analyze(1); err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for p := 0; p < 3; p++ {
			for _, v := range k.hist[p] {
				total += v
			}
		}
		totals = append(totals, total)
	}
	if totals[0] != totals[1] || totals[1] != totals[2] {
		t.Fatalf("rank-dependent counts: %v", totals)
	}
	if totals[0] == 0 {
		t.Fatal("ion rdf found no pairs")
	}
}

func TestRDFPairSymmetryCount(t *testing.T) {
	// hydronium-hydronium counts each ordered pair once from each side, so
	// the total must be even.
	sys := waterSys(t, 3000)
	k, err := NewHydroniumRDF(sys, RDFConfig{Bins: 16, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Setup(); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Analyze(1); err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range k.hist[1] {
		total += v
	}
	if math.Mod(total, 2) != 0 {
		t.Fatalf("hydronium-hydronium count %g is odd", total)
	}
}

func TestRDFValidation(t *testing.T) {
	sys := waterSys(t, 500)
	if _, err := NewRDF("empty", sys, nil, RDFConfig{}); err == nil {
		t.Fatal("expected error for no pairs")
	}
}

func TestMSDZeroAtStart(t *testing.T) {
	sys := waterSys(t, 1200)
	k, err := NewMSD(sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Setup(); err != nil {
		t.Fatal(err)
	}
	if _, err := k.PreStep(0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Analyze(0); err != nil {
		t.Fatal(err)
	}
	if got := k.Series()[0]; got != 0 {
		t.Fatalf("MSD at t=0 is %g, want 0", got)
	}
}

func TestMSDGrowsUnderDynamics(t *testing.T) {
	sys := waterSys(t, 1200)
	k, err := NewMSD(sys, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Setup(); err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= 20; s++ {
		sys.Step(0.002)
		if _, err := k.PreStep(s); err != nil {
			t.Fatal(err)
		}
		if s%10 == 0 {
			if _, err := k.Analyze(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	series := k.Series()
	if len(series) != 2 {
		t.Fatalf("series length = %d", len(series))
	}
	if series[0] <= 0 || series[1] <= series[0] {
		t.Fatalf("MSD not increasing: %v", series)
	}
	if k.WindowLen() != 20 {
		t.Fatalf("window = %d, want 20 (one snapshot per step)", k.WindowLen())
	}
	var buf bytes.Buffer
	if _, err := k.Output(&buf); err != nil {
		t.Fatal(err)
	}
	if k.WindowLen() != 0 {
		t.Fatal("output must release the window buffer")
	}
}

func TestMSDWindowMemoryAccumulates(t *testing.T) {
	sys := waterSys(t, 1000)
	k, err := NewMSD(sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Setup(); err != nil {
		t.Fatal(err)
	}
	im1, err := k.PreStep(1)
	if err != nil {
		t.Fatal(err)
	}
	im2, err := k.PreStep(2)
	if err != nil {
		t.Fatal(err)
	}
	if im1 <= 0 || im1 != im2 {
		t.Fatalf("per-step allocations %d, %d must be positive and equal", im1, im2)
	}
	if k.WindowLen() != 2 {
		t.Fatalf("window = %d", k.WindowLen())
	}
}

func TestMSDEmptyGroupError(t *testing.T) {
	sys := rhodoSys(t, 2000)
	// Remove ions and hydronium so the MSD group is empty.
	for i := 0; i < sys.N; i++ {
		if sys.Type[i] == md.Cation || sys.Type[i] == md.Anion || sys.Type[i] == md.Hydronium {
			sys.Type[i] = md.Water
		}
	}
	k, err := NewMSD(sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Setup(); err == nil {
		t.Fatal("expected empty-group error")
	}
}

func TestVACFStartsAtOne(t *testing.T) {
	sys := waterSys(t, 1500)
	k, err := NewVACF(sys, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Setup(); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Analyze(0); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 3; g++ {
		if c := k.Series(g)[0]; math.Abs(c-1) > 1e-9 {
			t.Fatalf("group %d: C(0) = %g, want 1", g, c)
		}
	}
}

func TestVACFDecorrelates(t *testing.T) {
	sys := waterSys(t, 1500)
	k, err := NewVACF(sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Setup(); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Analyze(0); err != nil {
		t.Fatal(err)
	}
	sys.Run(60, 0.002)
	if _, err := k.Analyze(60); err != nil {
		t.Fatal(err)
	}
	c0 := k.Series(0)[0]
	cT := k.Series(0)[1]
	if math.Abs(cT) >= math.Abs(c0) {
		t.Fatalf("VACF did not decay: C(0)=%g C(t)=%g", c0, cT)
	}
	var buf bytes.Buffer
	if _, err := k.Output(&buf); err != nil {
		t.Fatal(err)
	}
	if len(k.Series(0)) != 0 {
		t.Fatal("output must clear series")
	}
	if !strings.Contains(buf.String(), "group water") {
		t.Fatal("output missing group label")
	}
}

func TestGyrationMatchesDirect(t *testing.T) {
	sys := rhodoSys(t, 3000)
	k, err := NewGyration(sys, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Setup(); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Analyze(0); err != nil {
		t.Fatal(err)
	}
	got := k.Series()[0]

	// Direct single-threaded computation.
	group := sys.IndicesOf(md.Protein)
	var com md.Vec3
	var mass float64
	for _, i := range group {
		m := sys.Params[sys.Type[i]].Mass
		com = com.Add(sys.Unwrapped(i).Scale(m))
		mass += m
	}
	com = com.Scale(1 / mass)
	sum := 0.0
	for _, i := range group {
		m := sys.Params[sys.Type[i]].Mass
		sum += m * sys.Unwrapped(i).Sub(com).Norm2()
	}
	want := math.Sqrt(sum / mass)
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("Rg = %g, want %g", got, want)
	}
	// Protein is compact: Rg must be well below half the box.
	if got > sys.Box[0]/4 {
		t.Fatalf("Rg %g too large for compact protein (box %g)", got, sys.Box[0])
	}
}

func TestGyrationRequiresProtein(t *testing.T) {
	sys := waterSys(t, 500)
	k, err := NewGyration(sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Setup(); err == nil {
		t.Fatal("expected error: water system has no protein")
	}
}

func TestDensityHistCountsAllSpeciesParticles(t *testing.T) {
	sys := rhodoSys(t, 4000)
	k, err := NewMembraneHist(sys, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Setup(); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Analyze(0); err != nil {
		t.Fatal(err)
	}
	want := float64(sys.CountType(md.Membrane))
	if k.Total() != want {
		t.Fatalf("grid total = %g, want %g", k.Total(), want)
	}
	var buf bytes.Buffer
	om, err := k.Output(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if om != int64(buf.Len()) || om == 0 {
		t.Fatalf("om = %d, buffer %d", om, buf.Len())
	}
	if k.Samples() != 0 || k.Total() != 0 {
		t.Fatal("output must reset the grid")
	}
}

func TestProteinHistConcentratedAtCenter(t *testing.T) {
	sys := rhodoSys(t, 4000)
	k, err := NewProteinHist(sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Setup(); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Analyze(0); err != nil {
		t.Fatal(err)
	}
	// Central cells must hold everything: the protein sphere has radius
	// 0.12 L, inside the central quarter [3/8, 5/8) of each axis.
	central := 0.0
	for x := 3 * histSide / 8; x < 5*histSide/8; x++ {
		for z := 3 * histSide / 8; z < 5*histSide/8; z++ {
			central += k.grid[x*histSide+z]
		}
	}
	if central != k.Total() {
		t.Fatalf("protein mass outside central cells: central=%g total=%g", central, k.Total())
	}
}

func TestHistValidation(t *testing.T) {
	sys := rhodoSys(t, 2000)
	if _, err := NewDensityHist("x", sys, nil, 0); err == nil {
		t.Fatal("expected species error")
	}
}

// TestMeasureIntegration exercises analysis.Measure end to end with a real
// kernel, confirming the cost mapping (fm>0, om>0, ct>0).
func TestMeasureIntegration(t *testing.T) {
	sys := waterSys(t, 1000)
	k, err := NewMSD(sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	costs, err := analysis.Measure(k, func() { sys.Step(0.002) })
	if err != nil {
		t.Fatal(err)
	}
	if costs.FM <= 0 {
		t.Fatalf("fm = %d", costs.FM)
	}
	if costs.IM <= 0 {
		t.Fatalf("im = %d (msd buffers every step)", costs.IM)
	}
	if costs.CT <= 0 {
		t.Fatalf("ct = %v", costs.CT)
	}
	if costs.OM <= 0 {
		t.Fatalf("om = %d", costs.OM)
	}
	if costs.Kernel != "A4 msd" {
		t.Fatalf("kernel = %q", costs.Kernel)
	}
	if !strings.Contains(costs.String(), "A4 msd") {
		t.Fatal("costs string missing kernel name")
	}
}

// All kernels must satisfy the analysis.Kernel interface.
var (
	_ analysis.Kernel = (*RDF)(nil)
	_ analysis.Kernel = (*MSD)(nil)
	_ analysis.Kernel = (*VACF)(nil)
	_ analysis.Kernel = (*Gyration)(nil)
	_ analysis.Kernel = (*DensityHist)(nil)
)

func TestOutputToFailingWriter(t *testing.T) {
	sys := waterSys(t, 800)
	k, err := NewHydroniumRDF(sys, RDFConfig{Bins: 8, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Setup(); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Analyze(1); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Output(failWriter{}); err == nil {
		t.Fatal("expected write error")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }

func TestStatsKernel(t *testing.T) {
	sys := waterSys(t, 1500)
	k, err := NewStats(sys, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Setup(); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Analyze(0); err != nil {
		t.Fatal(err)
	}
	row := k.Series()[0]
	// Temperature from the reduction must match the serial value.
	if math.Abs(row[0]-sys.Temperature()) > 1e-9 {
		t.Fatalf("T = %g, serial %g", row[0], sys.Temperature())
	}
	if math.Abs(row[2]-sys.KineticEnergy()) > 1e-9*row[2] {
		t.Fatalf("KE = %g, serial %g", row[2], sys.KineticEnergy())
	}
	if !(row[3] <= row[5] && row[5] <= row[4]) {
		t.Fatalf("speed ordering broken: min %g mean %g max %g", row[3], row[5], row[4])
	}
	var buf bytes.Buffer
	om, err := k.Output(&buf)
	if err != nil || om == 0 {
		t.Fatalf("output: %d, %v", om, err)
	}
	if len(k.Series()) != 0 {
		t.Fatal("output must clear series")
	}
	if !strings.Contains(buf.String(), "vmax") {
		t.Fatal("output header missing")
	}
}

func TestStatsRankInvariant(t *testing.T) {
	sys := waterSys(t, 900)
	var temps []float64
	for _, ranks := range []int{1, 5} {
		k, err := NewStats(sys, ranks)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.Analyze(0); err != nil {
			t.Fatal(err)
		}
		temps = append(temps, k.Series()[0][0])
	}
	if math.Abs(temps[0]-temps[1]) > 1e-9 {
		t.Fatalf("rank-dependent temperature: %v", temps)
	}
}

func TestSpeedHistogramMaxwellBoltzmann(t *testing.T) {
	// Equilibrate a liquid, then compare the measured speed distribution to
	// the MB reference at the measured temperature. Several samples keep the
	// statistics stable.
	sys := waterSys(t, 4000)
	for i := 0; i < 30; i++ {
		sys.Step(0.002)
		sys.Rescale(1.0)
	}
	k, err := NewSpeedHistogram(sys, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Setup(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 5; s++ {
		sys.Run(5, 0.002)
		if _, err := k.Analyze(s); err != nil {
			t.Fatal(err)
		}
	}
	f := k.Distribution()
	vs := k.BinCenters()
	temp := sys.Temperature()
	// Compare where MB has appreciable mass; total variation must be small.
	dev := 0.0
	dv := vs[1] - vs[0]
	for b := range f {
		// Masses differ per species; use the dominant water mass 1.0.
		dev += math.Abs(f[b]-MaxwellBoltzmann(vs[b], temp)) * dv
	}
	if dev > 0.25 {
		t.Fatalf("speed distribution deviates from Maxwell-Boltzmann by %.2f (TV)", dev)
	}
	var buf bytes.Buffer
	om, err := k.Output(&buf)
	if err != nil || om == 0 {
		t.Fatalf("output: %d, %v", om, err)
	}
	if !strings.Contains(buf.String(), "maxwell-boltzmann") {
		t.Fatal("output missing reference column")
	}
	if k.Distribution()[0] != 0 {
		t.Fatal("output must reset histogram")
	}
}

func TestMaxwellBoltzmannNormalization(t *testing.T) {
	// Integral of f(v) dv over [0, inf) must be ~1.
	sum := 0.0
	dv := 0.01
	for v := dv / 2; v < 12; v += dv {
		sum += MaxwellBoltzmann(v, 1.3) * dv
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Fatalf("MB normalization = %g", sum)
	}
	if MaxwellBoltzmann(1, 0) != 0 {
		t.Fatal("zero temperature must give 0")
	}
}

// Compliance for the extension kernels.
var (
	_ analysis.Kernel = (*Stats)(nil)
	_ analysis.Kernel = (*SpeedHistogram)(nil)
)
