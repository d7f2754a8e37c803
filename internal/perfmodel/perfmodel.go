// Package perfmodel provides the performance-modeling layer of the paper
// (§4): a bilinear-interpolation predictor that extends a few measured
// (problem size, scale) points to arbitrary configurations. The paper
// reports <6% prediction error for computation time (y = process count) and
// <8% for communication time (y = network diameter); the Figure-2 experiment
// reproduces that measurement against the mini-app substrate.
package perfmodel

import (
	"fmt"
	"sort"
)

// Bilinear interpolates a function sampled on a rectilinear grid, exactly
// the scheme in Figure 2: the x-variable is problem size and the y-variable
// is process count (computation) or network diameter (communication).
// Outside the grid the edge cell's plane is extended (linear extrapolation).
type Bilinear struct {
	xs, ys []float64
	v      [][]float64 // v[i][j] = f(xs[i], ys[j])
}

// NewBilinear builds an interpolator. xs and ys must be strictly increasing,
// and v must be len(xs) rows of len(ys) values.
func NewBilinear(xs, ys []float64, v [][]float64) (*Bilinear, error) {
	if len(xs) < 2 || len(ys) < 2 {
		return nil, fmt.Errorf("perfmodel: bilinear needs at least a 2x2 grid, got %dx%d", len(xs), len(ys))
	}
	if len(v) != len(xs) {
		return nil, fmt.Errorf("perfmodel: %d value rows for %d x-samples", len(v), len(xs))
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return nil, fmt.Errorf("perfmodel: x-samples not strictly increasing at %d", i)
		}
	}
	for j := 1; j < len(ys); j++ {
		if ys[j] <= ys[j-1] {
			return nil, fmt.Errorf("perfmodel: y-samples not strictly increasing at %d", j)
		}
	}
	for i, row := range v {
		if len(row) != len(ys) {
			return nil, fmt.Errorf("perfmodel: row %d has %d values for %d y-samples", i, len(row), len(ys))
		}
	}
	return &Bilinear{xs: xs, ys: ys, v: v}, nil
}

// cell returns the index i with samples[i] <= t < samples[i+1], clamped to
// the edge cells so out-of-range points extrapolate.
func cell(samples []float64, t float64) int {
	i := sort.SearchFloat64s(samples, t) - 1
	if i < 0 {
		i = 0
	}
	if i > len(samples)-2 {
		i = len(samples) - 2
	}
	return i
}

// Predict evaluates the bilinear surface at (x, y).
func (b *Bilinear) Predict(x, y float64) float64 {
	i := cell(b.xs, x)
	j := cell(b.ys, y)
	x0, x1 := b.xs[i], b.xs[i+1]
	y0, y1 := b.ys[j], b.ys[j+1]
	tx := (x - x0) / (x1 - x0)
	ty := (y - y0) / (y1 - y0)
	v00, v01 := b.v[i][j], b.v[i][j+1]
	v10, v11 := b.v[i+1][j], b.v[i+1][j+1]
	return v00*(1-tx)*(1-ty) + v10*tx*(1-ty) + v01*(1-tx)*ty + v11*tx*ty
}

// Table accumulates samples for a named quantity and materializes a Bilinear
// over the sampled grid. Samples must cover a full rectilinear grid (every
// combination of the distinct X and Y values); Build reports gaps.
type Table struct {
	Name    string
	samples map[[2]float64]float64
}

// NewTable creates an empty profile table.
func NewTable(name string) *Table {
	return &Table{Name: name, samples: make(map[[2]float64]float64)}
}

// Add records a measurement at (x, y). Duplicate points are averaged.
func (t *Table) Add(x, y, value float64) {
	key := [2]float64{x, y}
	if old, ok := t.samples[key]; ok {
		t.samples[key] = (old + value) / 2
		return
	}
	t.samples[key] = value
}

// Build materializes the interpolator from the sampled grid.
func (t *Table) Build() (*Bilinear, error) {
	xsSet := map[float64]bool{}
	ysSet := map[float64]bool{}
	for k := range t.samples {
		xsSet[k[0]] = true
		ysSet[k[1]] = true
	}
	xs := keys(xsSet)
	ys := keys(ysSet)
	v := make([][]float64, len(xs))
	for i, x := range xs {
		v[i] = make([]float64, len(ys))
		for j, y := range ys {
			val, ok := t.samples[[2]float64{x, y}]
			if !ok {
				return nil, fmt.Errorf("perfmodel: table %q missing sample at (%g, %g)", t.Name, x, y)
			}
			v[i][j] = val
		}
	}
	return NewBilinear(xs, ys, v)
}

func keys(set map[float64]bool) []float64 {
	out := make([]float64, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Float64s(out)
	return out
}

// RelError returns |pred-actual|/actual, the metric the paper reports for
// Figure 2 (<6% compute, <8% communication).
func RelError(pred, actual float64) float64 {
	if actual == 0 {
		if pred == 0 {
			return 0
		}
		return 1
	}
	e := (pred - actual) / actual
	if e < 0 {
		return -e
	}
	return e
}
