package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"insitu/internal/obs/jsontest"
)

// marshalLedgerEvent is the oracle the append-style encoder is held to:
// encoding/json itself, HTML escaping off, the trailing newline removed.
func marshalLedgerEvent(e LedgerEvent) ([]byte, error) {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(e); err != nil {
		return nil, err
	}
	return []byte(strings.TrimSuffix(b.String(), "\n")), nil
}

// checkLedgerEncode holds one event to the oracle byte for byte and error
// for error, and a line that encodes to the round trip through
// ParseLedgerEvent. It reports whether the event encoded.
func checkLedgerEncode(t *testing.T, e LedgerEvent) bool {
	t.Helper()
	want, wantErr := marshalLedgerEvent(e)
	var enc ledgerEncoder
	got, gotErr := enc.appendEvent(nil, e)
	if wantErr != nil || gotErr != nil {
		var wantUV, gotUV *json.UnsupportedValueError
		if !errors.As(wantErr, &wantUV) || !errors.As(gotErr, &gotUV) || wantErr.Error() != gotErr.Error() {
			t.Fatalf("%+v:\nencoder error %v\n   json error %v", e, gotErr, wantErr)
		}
		return false
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%+v:\nencoder %s\n   json %s", e, got, want)
	}
	if e.Schema != LedgerSchemaVersion {
		return true
	}
	back, err := ParseLedgerEvent(got)
	if err != nil {
		t.Fatalf("%s does not parse: %v", got, err)
	}
	// What the round trip may change: an empty args map decodes as nil, and
	// invalid UTF-8 was replaced on the way out.
	if len(e.Args) == 0 {
		e.Args = nil
	}
	if utf8Clean(e) && !reflect.DeepEqual(back, e) {
		t.Fatalf("round trip of %s:\n got %+v\nwant %+v", got, back, e)
	}
	return true
}

func utf8Clean(e LedgerEvent) bool {
	ok := strings.ToValidUTF8(e.Type, "") == e.Type && strings.ToValidUTF8(e.Name, "") == e.Name
	for k := range e.Args {
		ok = ok && strings.ToValidUTF8(k, "") == k
	}
	return ok
}

// randLedgerEvent draws an event over the whole input space the encoder
// special-cases; most draws are finite so most lines encode.
func randLedgerEvent(rng *rand.Rand) LedgerEvent {
	str := func() string { return jsontest.String(rng) }
	num := func() float64 { return jsontest.Float(rng) }
	maybe := func(v float64) float64 {
		if rng.Intn(3) == 0 {
			return 0
		}
		return v
	}
	e := LedgerEvent{
		Schema: LedgerSchemaVersion, Type: str(), Name: str(),
		Step: rng.Intn(5) * rng.Intn(1000), TS: num(), Dur: maybe(num()),
		Bytes: int64(maybe(float64(rng.Int63n(1<<40) - 1<<39))), Mem: int64(maybe(float64(rng.Int63n(1 << 40)))),
	}
	if rng.Intn(16) == 0 {
		e.Schema = rng.Intn(5) - 1
	}
	if n := rng.Intn(14) - 1; n >= 0 { // -1: nil map, 0: empty map
		e.Args = map[string]float64{}
		for len(e.Args) < n {
			k := str()
			if rng.Intn(2) == 0 {
				k += string(rune('a' + rng.Intn(26)))
			}
			e.Args[k] = num()
		}
	}
	return e
}

// TestLedgerEncodeMatchesJSON is the differential test: 20 000 seeded events
// against encoding/json.
func TestLedgerEncodeMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	encoded, rejected := 0, 0
	for i := 0; i < 20000; i++ {
		if checkLedgerEncode(t, randLedgerEvent(rng)) {
			encoded++
		} else {
			rejected++
		}
	}
	if encoded < 10000 || rejected < 1000 {
		t.Fatalf("generator is lopsided: %d events encoded, %d were rejected", encoded, rejected)
	}
	// Every listed string and float once on its own, in each position.
	for _, s := range jsontest.Strings {
		checkLedgerEncode(t, LedgerEvent{Schema: 1, Type: s, Name: s, Args: map[string]float64{s: 1, s + "2": 2}})
	}
	for _, f := range jsontest.Floats {
		checkLedgerEncode(t, LedgerEvent{Schema: 1, Type: LedgerStep, TS: f})
		checkLedgerEncode(t, LedgerEvent{Schema: 1, Type: LedgerStep, Dur: f})
		checkLedgerEncode(t, LedgerEvent{Schema: 1, Type: LedgerStep, Args: map[string]float64{"x": f}})
	}
}

// TestLedgerEncodeFirstErrorWins pins the order numbers are visited in: the
// sticky error names the value encoding/json would have named.
func TestLedgerEncodeFirstErrorWins(t *testing.T) {
	for _, e := range []LedgerEvent{
		{Type: LedgerStep, TS: math.Inf(1), Dur: math.NaN()},
		{Type: LedgerStep, Dur: math.Inf(-1), Args: map[string]float64{"a": math.NaN()}},
		{Type: LedgerStep, Args: map[string]float64{"b": math.Inf(1), "a": math.NaN(), "c": math.Inf(-1)}},
	} {
		if checkLedgerEncode(t, e) {
			t.Fatalf("%+v encoded", e)
		}
	}
}

func FuzzLedgerEncode(f *testing.F) {
	f.Add("step", "", 1, 1000.0, 2.5, int64(0), int64(0), "", 0.0, "", 0.0)
	f.Add("output", "rdf", 40, 1e-9, 1e25, int64(-4096), int64(1<<30), "bytes", math.Inf(1), "quo\"ted", -0.0)
	f.Add("analysis", "k1", 7, 123456.789, 0.045, int64(0), int64(0), "step", 999999999999.999, "x", 0.001)
	f.Add("<&>", "line\u2028sep", -3, math.NaN(), 0.0, int64(1), int64(-1), "bad\xff", 1e21, "k", 9.99e-7)
	f.Fuzz(func(t *testing.T, typ, name string, step int, ts, dur float64, nbytes, mem int64, k1 string, v1 float64, k2 string, v2 float64) {
		e := LedgerEvent{Schema: LedgerSchemaVersion, Type: typ, Name: name, Step: step, TS: ts, Dur: dur, Bytes: nbytes, Mem: mem}
		checkLedgerEncode(t, e)
		e.Args = map[string]float64{k1: v1, k2: v2}
		checkLedgerEncode(t, e)
	})
}
