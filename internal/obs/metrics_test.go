package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("msgs_total", nil)
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotonic
	if c.Value() != 3 {
		t.Fatalf("counter = %g", c.Value())
	}
	g := r.Gauge("backlog_bytes", nil)
	g.Set(10)
	g.Add(-4)
	if g.Value() != 6 {
		t.Fatalf("gauge = %g", g.Value())
	}
	h := r.Histogram("step_seconds", []float64{0.1, 1}, nil)
	for _, v := range []float64{0.0625, 0.5, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 6.0625 {
		t.Fatalf("hist count=%d sum=%g", h.Count(), h.Sum())
	}
}

func TestRegistryLabelsAndReuse(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("runs_total", Labels{"kernel": "rdf"})
	b := r.Counter("runs_total", Labels{"kernel": "rdf"})
	if a != b {
		t.Fatal("same name+labels must return the same handle")
	}
	other := r.Counter("runs_total", Labels{"kernel": "msd"})
	if a == other {
		t.Fatal("distinct labels must return distinct handles")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Gauge("runs_total", nil)
}

func TestPrometheusByteStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("comm_messages_total", nil).Add(12)
	r.Counter("analyses_total", Labels{"kernel": "rdf"}).Inc()
	r.Counter("analyses_total", Labels{"kernel": "msd"}).Add(3)
	r.Gauge("burstbuffer_backlog_bytes", nil).Set(1024)
	h := r.Histogram("step_seconds", []float64{0.1, 1}, Labels{"app": "mdsim"})
	h.Observe(0.0625)
	h.Observe(2)

	var buf1, buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("prometheus export not byte-stable")
	}
	// A multi-series family gets exactly one TYPE header.
	want := `# TYPE analyses_total counter
analyses_total{kernel="msd"} 3
analyses_total{kernel="rdf"} 1
# TYPE burstbuffer_backlog_bytes gauge
burstbuffer_backlog_bytes 1024
# TYPE comm_messages_total counter
comm_messages_total 12
# TYPE step_seconds histogram
step_seconds_bucket{app="mdsim",le="0.1"} 1
step_seconds_bucket{app="mdsim",le="1"} 1
step_seconds_bucket{app="mdsim",le="+Inf"} 2
step_seconds_sum{app="mdsim"} 2.0625
step_seconds_count{app="mdsim"} 2
`
	if got := buf1.String(); got != want {
		t.Fatalf("prometheus text:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestWriteJSONSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("n", nil).Inc()
	r.Histogram("h", []float64{1}, nil).Observe(3)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap []Metric
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("invalid snapshot JSON: %v\n%s", err, buf.String())
	}
	if len(snap) != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap[0].Name != "h" || snap[0].Count != 1 || len(snap[0].Buckets) != 2 {
		t.Fatalf("histogram snapshot = %+v", snap[0])
	}
	if !math.IsInf(r.Snapshot()[0].Buckets[1].UpperBound, 1) {
		t.Fatal("last bucket must be +Inf")
	}
}

func TestMetricsConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("ops_total", nil)
			h := r.Histogram("lat", []float64{10, 100}, nil)
			ga := r.Gauge("level", nil)
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 150))
				ga.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("ops_total", nil).Value(); got != 8000 {
		t.Fatalf("counter = %g, want 8000", got)
	}
	if got := r.Histogram("lat", nil, nil).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
	if got := r.Gauge("level", nil).Value(); got != 8000 {
		t.Fatalf("gauge = %g, want 8000", got)
	}
}

func TestNilRegistryNoOps(t *testing.T) {
	var r *Registry
	r.Counter("a", nil).Inc()
	r.Gauge("b", nil).Set(1)
	r.Histogram("c", nil, nil).Observe(1)
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry export = %q", buf.String())
	}
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("nil registry JSON invalid")
	}
}

func TestLabelKeyCanonical(t *testing.T) {
	if got := labelKey(Labels{"b": "2", "a": "1"}); got != `{a="1",b="2"}` {
		t.Fatalf("labelKey = %q", got)
	}
	if got := labelKey(nil); got != "" {
		t.Fatalf("empty labelKey = %q", got)
	}
}

// TestBucketQuantile drives the interpolation against known distributions.
func TestBucketQuantile(t *testing.T) {
	cases := []struct {
		name    string
		buckets []float64 // upper bounds
		obs     []float64
		q       float64
		want    float64
	}{
		// 100 uniform samples in (0,10]: ranks interpolate linearly.
		{"uniform-p50", []float64{10}, ramp(100, 0.1), 0.50, 5.0},
		{"uniform-p90", []float64{10}, ramp(100, 0.1), 0.90, 9.0},
		{"uniform-p99", []float64{10}, ramp(100, 0.1), 0.99, 9.9},
		// Two buckets, 10 samples below 1 and 10 in (1,2]: p50 at the seam.
		{"two-buckets-p50", []float64{1, 2}, append(ramp(10, 0.1), ramp2(10, 1, 0.1)...), 0.50, 1.0},
		{"two-buckets-p75", []float64{1, 2}, append(ramp(10, 0.1), ramp2(10, 1, 0.1)...), 0.75, 1.5},
		// First bucket interpolates from zero.
		{"first-bucket", []float64{4, 8}, ramp(8, 0.5), 0.25, 1.0},
		// Rank in the +Inf bucket clamps to the highest finite bound.
		{"inf-clamp", []float64{1}, []float64{5, 6, 7, 8}, 0.90, 1.0},
		// A single sample interpolates to the middle of its (2,4] bucket.
		{"single", []float64{1, 2, 4}, []float64{3}, 0.50, 3.0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			h := r.Histogram("h", tc.buckets, nil)
			for _, v := range tc.obs {
				h.Observe(v)
			}
			m := r.Snapshot()[0]
			got := bucketQuantile(m.Buckets, tc.q)
			if math.Abs(got-tc.want) > 1e-9 {
				t.Fatalf("q%.2f = %g, want %g (buckets %+v)", tc.q, got, tc.want, m.Buckets)
			}
			if m.Quantiles == nil {
				t.Fatal("snapshot did not populate Quantiles")
			}
			if p50 := m.Quantiles["p50"]; math.Abs(p50-bucketQuantile(m.Buckets, 0.5)) > 1e-12 {
				t.Fatalf("Quantiles[p50]=%g, Quantile(0.5)=%g", p50, bucketQuantile(m.Buckets, 0.5))
			}
		})
	}
}

// ramp returns n values step, 2*step, ..., n*step.
func ramp(n int, step float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i+1) * step
	}
	return out
}

// ramp2 is ramp offset by base.
func ramp2(n int, base, step float64) []float64 {
	out := ramp(n, step)
	for i := range out {
		out[i] += base
	}
	return out
}

// TestQuantileEdgeCases covers empty histograms and invalid q.
func TestQuantileEdgeCases(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", []float64{1}, nil) // registered, never observed
	m := r.Snapshot()[0]
	if m.Quantiles != nil {
		t.Fatalf("empty histogram grew quantiles: %v", m.Quantiles)
	}
	if !math.IsNaN(bucketQuantile(m.Buckets, 0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
	if !math.IsNaN(bucketQuantile(m.Buckets, 0)) || !math.IsNaN(bucketQuantile(m.Buckets, 1.5)) {
		t.Fatal("out-of-range q should be NaN")
	}
	if !math.IsNaN(bucketQuantile(nil, 0.5)) {
		t.Fatal("non-histogram metric quantile should be NaN")
	}
	// JSON snapshot of a populated histogram carries the quantiles.
	r.Histogram("h", []float64{1}, nil).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap []Metric
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap[0].Quantiles["p99"] == 0 {
		t.Fatalf("JSON snapshot lost quantiles: %+v", snap[0])
	}
}
