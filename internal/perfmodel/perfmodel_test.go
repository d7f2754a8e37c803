package perfmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBilinearExactAtNodes(t *testing.T) {
	b, err := NewBilinear(
		[]float64{1, 2, 4},
		[]float64{10, 20},
		[][]float64{{1, 2}, {3, 4}, {5, 6}},
	)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, y, want float64 }{
		{1, 10, 1}, {1, 20, 2}, {2, 10, 3}, {2, 20, 4}, {4, 10, 5}, {4, 20, 6},
	}
	for _, c := range cases {
		if got := b.Predict(c.x, c.y); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Predict(%g,%g) = %g, want %g", c.x, c.y, got, c.want)
		}
	}
}

func TestBilinearMidpoint(t *testing.T) {
	b, _ := NewBilinear([]float64{0, 2}, []float64{0, 2}, [][]float64{{0, 2}, {2, 4}})
	if got := b.Predict(1, 1); math.Abs(got-2) > 1e-12 {
		t.Fatalf("midpoint = %g, want 2", got)
	}
}

func TestBilinearExtrapolation(t *testing.T) {
	// Plane z = x + y should extrapolate exactly.
	b, _ := NewBilinear([]float64{0, 1}, []float64{0, 1}, [][]float64{{0, 1}, {1, 2}})
	for _, c := range [][3]float64{{2, 3, 5}, {-1, 0, -1}, {5, 5, 10}} {
		if got := b.Predict(c[0], c[1]); math.Abs(got-c[2]) > 1e-12 {
			t.Fatalf("Predict(%g,%g) = %g, want %g", c[0], c[1], got, c[2])
		}
	}
}

// Property: bilinear reproduces any affine function f = a + bx + cy exactly
// everywhere, including off-grid and extrapolated points.
func TestBilinearAffineExact(t *testing.T) {
	f := func(a, bc, cc int8, px, py uint8) bool {
		av, bv, cv := float64(a), float64(bc), float64(cc)
		fn := func(x, y float64) float64 { return av + bv*x + cv*y }
		xs := []float64{0, 1, 3}
		ys := []float64{0, 2, 5}
		v := make([][]float64, len(xs))
		for i, x := range xs {
			v[i] = make([]float64, len(ys))
			for j, y := range ys {
				v[i][j] = fn(x, y)
			}
		}
		b, err := NewBilinear(xs, ys, v)
		if err != nil {
			return false
		}
		x := float64(px)/10 - 5
		y := float64(py)/10 - 5
		return math.Abs(b.Predict(x, y)-fn(x, y)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBilinearValidation(t *testing.T) {
	if _, err := NewBilinear([]float64{1}, []float64{1, 2}, [][]float64{{1, 2}}); err == nil {
		t.Fatal("expected error for 1 x-sample")
	}
	if _, err := NewBilinear([]float64{2, 1}, []float64{1, 2}, [][]float64{{1, 2}, {3, 4}}); err == nil {
		t.Fatal("expected error for non-increasing xs")
	}
	if _, err := NewBilinear([]float64{1, 2}, []float64{2, 2}, [][]float64{{1, 2}, {3, 4}}); err == nil {
		t.Fatal("expected error for non-increasing ys")
	}
	if _, err := NewBilinear([]float64{1, 2}, []float64{1, 2}, [][]float64{{1, 2}}); err == nil {
		t.Fatal("expected error for wrong row count")
	}
	if _, err := NewBilinear([]float64{1, 2}, []float64{1, 2}, [][]float64{{1}, {3, 4}}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

func TestTableBuild(t *testing.T) {
	tab := NewTable("compute")
	for _, x := range []float64{1e6, 1e7} {
		for _, y := range []float64{64, 256} {
			tab.Add(x, y, x/y)
		}
	}
	b, err := tab.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Predict(1e6, 64); math.Abs(got-1e6/64) > 1e-9 {
		t.Fatalf("corner = %g", got)
	}
}

func TestTableMissingSample(t *testing.T) {
	tab := NewTable("gap")
	tab.Add(1, 1, 1)
	tab.Add(1, 2, 2)
	tab.Add(2, 1, 3)
	// (2,2) missing.
	if _, err := tab.Build(); err == nil {
		t.Fatal("expected gap error")
	}
}

func TestTableDuplicateAveraged(t *testing.T) {
	tab := NewTable("dup")
	tab.Add(1, 1, 2)
	tab.Add(1, 1, 4) // averaged to 3
	tab.Add(1, 2, 0)
	tab.Add(2, 1, 0)
	tab.Add(2, 2, 0)
	b, err := tab.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Predict(1, 1); math.Abs(got-3) > 1e-12 {
		t.Fatalf("duplicate average = %g, want 3", got)
	}
}

func TestRelError(t *testing.T) {
	if RelError(0, 0) != 0 {
		t.Fatal("0/0 should be 0")
	}
	if RelError(1, 0) != 1 {
		t.Fatal("pred with zero actual should be 1")
	}
	if got := RelError(106, 100); math.Abs(got-0.06) > 1e-12 {
		t.Fatalf("RelError = %g", got)
	}
	if got := RelError(94, 100); math.Abs(got-0.06) > 1e-12 {
		t.Fatalf("RelError = %g (must be symmetric)", got)
	}
}
