// Package jsontest holds the inputs this repository's append-style JSON
// encoders are held to encoding/json with: strings and floats at every edge
// obs.AppendJSONString and obs.AppendJSONFloat special-case, and seeded
// draws over them. It is imported by tests only.
package jsontest

import (
	"math"
	"math/rand"
)

var (
	// Strings covers the fast path (plain printable ASCII), every escape
	// encoding/json writes, the HTML set, U+2028/U+2029 and invalid UTF-8.
	Strings = []string{
		"", "step", "k1", "rdf/analyze", "sec_per_event", "plain printable ~ASCII",
		`quo"ted`, `back\slash`, "tab\there", "nul\x00", "new\nline", "del\x7f",
		"\b\f\r\x1f", "\ufffd",
		"naïve", "日本語", "line\u2028sep", "para\u2029sep", "<&>", "bad\xffutf8", "\xc3",
	}
	// Floats covers -0, the whole-thousandths fast path and its edges, the
	// 1e-6 and 1e21 format cutoffs, the extremes, NaN and ±Inf.
	Floats = []float64{
		0, math.Copysign(0, -1), 1, -1, 17, 4096, 1e6, 123456.789, 0.5, 1e-6, 9.99e-7, 1e-9, -3.25e-9,
		0.001, 0.0009999999999999998, 0.0015, 0.01, -0.1, 0.125, 999999999999.999, 1e12, 1e12 - 0.001, 1e15, 4503599627370.497,
		1e20, 1e21, 1e25, -7.5e25, 1.7976931348623157e308, 5e-324,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
)

// String draws one of Strings.
func String(rng *rand.Rand) string { return Strings[rng.Intn(len(Strings))] }

// Float draws a float over the whole input space the float rule
// special-cases; one draw in eight comes from Floats, so most are finite.
func Float(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return Floats[rng.Intn(len(Floats))]
	case 1:
		return float64(rng.Intn(1 << 20))
	case 4: // nanoseconds over 1e3, as ts_us and dur_us are, across every magnitude
		return float64(rng.Int63n(1<<uint(1+rng.Intn(62)))) / 1e3
	case 5: // just below, at, and just above a whole number of thousandths
		x := float64(rng.Int63n(1e15)) / 1e3
		return math.Nextafter(x, []float64{math.Inf(-1), x, math.Inf(1)}[rng.Intn(3)])
	case 2:
		return rng.NormFloat64() * 1e-9
	case 3:
		return rng.NormFloat64() * 1e25
	default:
		return rng.NormFloat64() * 1e3
	}
}
