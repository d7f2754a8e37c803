package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attach dimensions to a metric (e.g. {"kernel": "rdf-hydronium"}).
type Labels map[string]string

// labelKey renders labels in the canonical {k="v",...} form with sorted
// keys; the empty form is "".
func labelKey(ls Labels) string {
	if len(ls) == 0 {
		return ""
	}
	keys := make([]string, 0, len(ls))
	for k := range ls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s=%q`, k, ls[k])
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing value. The hot-path Add is a single
// compare-and-swap loop, so per-message accounting in package comm stays
// cheap. A nil *Counter is a valid no-op.
type Counter struct {
	bits atomic.Uint64
}

// Add increments the counter by v (negative increments are ignored).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a value that can go up and down. A nil *Gauge is a valid no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by v (may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Buckets are cumulative
// in exports, Prometheus style. A nil *Histogram is a valid no-op.
type Histogram struct {
	uppers  []float64 // sorted upper bounds, exclusive of +Inf
	counts  []atomic.Int64
	inf     atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.uppers, v)
	if i < len(h.uppers) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64 = h.inf.Load()
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// DefBuckets is a general-purpose latency bucket layout in seconds.
var DefBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}

// metric kinds.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

type series struct {
	labels Labels
	c      *Counter
	g      *Gauge
	h      *Histogram
}

type family struct {
	name    string
	kind    string
	buckets []float64
	series  map[string]*series // by labelKey
}

// MetricError is the typed rejection a Registry raises (by panicking with
// it) for invalid or conflicting metric registrations: a name outside the
// Prometheus charset, a name re-registered as a different kind, or a
// histogram re-registered with different buckets. Registration mistakes are
// programming errors — silently accepting them would overwrite or fork the
// family — so they fail loudly at the registration site; recover and unwrap
// with errors.As in tests.
type MetricError struct {
	Name   string // the offending metric name
	Reason string // what was wrong with the registration
}

func (e *MetricError) Error() string {
	return fmt.Sprintf("obs: metric %q: %s", e.Name, e.Reason)
}

// ValidMetricName reports whether name fits the Prometheus metric charset
// [a-zA-Z_:][a-zA-Z0-9_:]* (returning a *MetricError when it does not).
// Registry enforces it on first registration of every family.
func ValidMetricName(name string) error {
	if name == "" {
		return &MetricError{Name: name, Reason: "empty metric name"}
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return &MetricError{Name: name, Reason: fmt.Sprintf("invalid character %q at position %d", c, i)}
		}
	}
	return nil
}

// Registry holds named metrics. Handle lookups lock; the returned handles
// are lock-free, so instrumented code should look up once and reuse. A nil
// *Registry hands out nil (no-op) handles.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, kind string, buckets []float64) *family {
	f, ok := r.families[name]
	if !ok {
		if err := ValidMetricName(name); err != nil {
			panic(err)
		}
		if kind == kindHistogram && len(buckets) == 0 {
			buckets = DefBuckets
		}
		f = &family{name: name, kind: kind, buckets: buckets, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(&MetricError{Name: name, Reason: fmt.Sprintf("registered as %s, requested as %s", f.kind, kind)})
	}
	// Empty buckets on a later call mean "the existing layout" (a handle
	// lookup); an explicit different layout is a conflicting registration.
	if kind == kindHistogram && len(buckets) > 0 && !sameBuckets(f.buckets, buckets) {
		panic(&MetricError{Name: name, Reason: "histogram re-registered with different buckets"})
	}
	return f
}

// sameBuckets reports whether two bucket layouts are identical.
func sameBuckets(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (f *family) at(labels Labels) *series {
	key := labelKey(labels)
	s, ok := f.series[key]
	if !ok {
		cp := make(Labels, len(labels))
		for k, v := range labels {
			cp[k] = v
		}
		s = &series{labels: cp}
		switch f.kind {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			s.h = &Histogram{
				uppers: append([]float64(nil), f.buckets...),
				counts: make([]atomic.Int64, len(f.buckets)),
			}
		}
		f.series[key] = s
	}
	return s
}

// Counter returns the counter for name+labels, creating it on first use.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.family(name, kindCounter, nil).at(labels).c
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.family(name, kindGauge, nil).at(labels).g
}

// Histogram returns the histogram for name+labels, creating it on first use
// with the given bucket upper bounds (sorted ascending; +Inf is implicit).
// Buckets are fixed by the first registration of the name.
func (r *Registry) Histogram(name string, buckets []float64, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.family(name, kindHistogram, buckets).at(labels).h
}

// Metric is one exported series in a snapshot.
type Metric struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Labels Labels  `json:"labels,omitempty"`
	Value  float64 `json:"value"` // counter/gauge value; histogram sum
	Count  int64   `json:"count,omitempty"`
	// Buckets holds cumulative counts per upper bound for histograms.
	Buckets []BucketCount `json:"buckets,omitempty"`
	// Quantiles holds estimated p50/p90/p99 for non-empty histograms,
	// linearly interpolated within buckets (see bucketQuantile).
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
}

// bucketQuantile estimates the q-th quantile (0 < q <= 1) of a histogram's
// cumulative buckets by linear interpolation within the bucket that holds the
// target rank, the same estimator Prometheus' histogram_quantile uses: the
// first bucket interpolates from zero, and ranks landing in the +Inf bucket
// clamp to the highest finite upper bound. It returns NaN for an empty or
// non-histogram metric and for q outside (0, 1].
func bucketQuantile(buckets []BucketCount, q float64) float64 {
	if len(buckets) == 0 || q <= 0 || q > 1 {
		return math.NaN()
	}
	total := buckets[len(buckets)-1].Count
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	var prevCum int64
	lower := 0.0
	seenFinite := false
	for _, b := range buckets {
		if float64(b.Count) >= rank {
			if math.IsInf(b.UpperBound, 1) {
				// Rank falls past every finite bucket: clamp to the
				// highest finite bound.
				if !seenFinite {
					return math.NaN()
				}
				return lower
			}
			in := b.Count - prevCum
			if in == 0 {
				return b.UpperBound
			}
			return lower + (b.UpperBound-lower)*(rank-float64(prevCum))/float64(in)
		}
		prevCum = b.Count
		if !math.IsInf(b.UpperBound, 1) {
			lower = b.UpperBound
			seenFinite = true
		}
	}
	return math.NaN()
}

// BucketCount is one cumulative histogram bucket.
type BucketCount struct {
	UpperBound float64 // +Inf for the last bucket
	Count      int64
}

// MarshalJSON renders the bound as a string so +Inf survives JSON encoding.
func (b BucketCount) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`{"le":%q,"count":%d}`, formatValue(b.UpperBound), b.Count)), nil
}

// UnmarshalJSON parses the string-bound form written by MarshalJSON.
func (b *BucketCount) UnmarshalJSON(data []byte) error {
	var raw struct {
		LE    string `json:"le"`
		Count int64  `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if raw.LE == "+Inf" {
		b.UpperBound = math.Inf(1)
	} else if _, err := fmt.Sscanf(raw.LE, "%g", &b.UpperBound); err != nil {
		return fmt.Errorf("obs: bucket bound %q: %w", raw.LE, err)
	}
	b.Count = raw.Count
	return nil
}

// Snapshot returns all series sorted by (name, labelKey). The ordering is
// deterministic, so serialized snapshots are byte-stable.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []Metric
	for _, n := range names {
		f := r.families[n]
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			m := Metric{Name: f.name, Kind: f.kind, Labels: s.labels}
			switch f.kind {
			case kindCounter:
				m.Value = s.c.Value()
			case kindGauge:
				m.Value = s.g.Value()
			case kindHistogram:
				m.Value = s.h.Sum()
				var cum int64
				for i, ub := range s.h.uppers {
					cum += s.h.counts[i].Load()
					m.Buckets = append(m.Buckets, BucketCount{UpperBound: ub, Count: cum})
				}
				cum += s.h.inf.Load()
				m.Buckets = append(m.Buckets, BucketCount{UpperBound: math.Inf(1), Count: cum})
				m.Count = cum
				if cum > 0 {
					m.Quantiles = map[string]float64{}
					for _, q := range [...]struct {
						name string
						q    float64
					}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}} {
						if v := bucketQuantile(m.Buckets, q.q); !math.IsNaN(v) {
							m.Quantiles[q.name] = v
						}
					}
					if len(m.Quantiles) == 0 {
						m.Quantiles = nil
					}
				}
			}
			out = append(out, m)
		}
	}
	return out
}

// formatValue renders a float the way Prometheus expects.
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus emits the registry in Prometheus text exposition format.
// Output is deterministic: families sorted by name, series by label key.
func (r *Registry) WritePrometheus(w io.Writer) error {
	lastFamily := ""
	for _, m := range r.Snapshot() {
		// One TYPE header per family, even when it has many label sets.
		if m.Name != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Kind); err != nil {
				return err
			}
			lastFamily = m.Name
		}
		lk := labelKey(m.Labels)
		switch m.Kind {
		case kindHistogram:
			for _, b := range m.Buckets {
				ls := histLabelKey(m.Labels, b.UpperBound)
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", m.Name, ls, b.Count); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", m.Name, lk, formatValue(m.Value)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", m.Name, lk, m.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", m.Name, lk, formatValue(m.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// histLabelKey renders labels plus the le bucket bound.
func histLabelKey(ls Labels, ub float64) string {
	withLE := make(Labels, len(ls)+1)
	for k, v := range ls {
		withLE[k] = v
	}
	withLE["le"] = formatValue(ub)
	return labelKey(withLE)
}

// WriteJSON emits the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	if snap == nil {
		snap = []Metric{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}
