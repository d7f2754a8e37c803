// Package jsontest holds the inputs this repository's JSON encoders are
// tested with: strings and floats at every edge obs.AppendJSONString and
// obs.AppendJSONFloat special-case, seeded draws over them, and ledger
// records with every field set. It is imported by tests only.
package jsontest

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
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

// FillRecord gives every ledger-carried field of the record rec points to
// (see obs.RecordEvent) a distinct non-zero value counted up from seed:
// numbers count, bools are true, a string takes the last name its ledger tag
// lists, or a made-up one when the tag puts it in the envelope's name. A
// field of any other kind is an error.
func FillRecord(rec any, seed int) error {
	v := reflect.ValueOf(rec).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, sf := v.Field(i), v.Type().Field(i)
		tag := sf.Tag.Get("ledger")
		n := seed + i + 1
		switch {
		case !sf.IsExported() || tag == "-" || sf.Tag.Get("json") == "-":
		case f.Kind() == reflect.Int:
			f.SetInt(int64(n))
		case f.Kind() == reflect.Float64:
			f.SetFloat(float64(n) + 0.25)
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		case tag == "name":
			f.SetString(fmt.Sprintf("name-%d", n))
		case f.Kind() == reflect.String:
			names := strings.Split(tag, "|")
			f.SetString(names[len(names)-1])
		default:
			return fmt.Errorf("jsontest: %s.%s: no value for a %s", v.Type(), sf.Name, f.Kind())
		}
	}
	return nil
}
