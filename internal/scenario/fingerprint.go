package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
	"sync"
)

// fingerprintVersion names the canonical encoding below. Bump it whenever
// the encoding (field set, defaults, float format) changes, so stale cache
// entries keyed on the old encoding can never be returned for new requests.
const fingerprintVersion = "scenario_v1"

// fingerprintScratch is the working memory of one Fingerprint call, reused
// across calls: the canonical encoding and where each analysis line sits in
// it.
type fingerprintScratch struct {
	buf   []byte
	lines []lineSpan
}

// lineSpan is buf[lo:hi], one analysis line without its separator.
type lineSpan struct{ lo, hi int }

var fingerprintPool = sync.Pool{New: func() any { return new(fingerprintScratch) }}

// Fingerprint returns a canonical content hash of the scenario:
// "sha256:<hex>" over a normalized encoding in which the order of the
// analyses does not matter and defaulted fields hash identically to their
// explicit values (Weight 0 == 1, MinInterval <= 0 == 1). Two scenarios with
// equal fingerprints describe the same scheduling problem and therefore the
// same optimal schedule — the property the schedd solution cache keys on.
// Any semantic change (a duration, a size, the envelope, a name, the
// optional-output flag) changes the hash.
//
// Floats are encoded with strconv's exact hexadecimal format, so fingerprint
// equality means bit-equality of the inputs, not approximate closeness; -0
// is normalized onto +0 first.
//
// The encoding is one header line for the envelope, then one line per
// analysis, the lines in byte order and joined by newlines.
func (p Problem) Fingerprint() string {
	sc := fingerprintPool.Get().(*fingerprintScratch)
	defer fingerprintPool.Put(sc)

	b := appendHeader(sc.buf[:0], p.Resources)
	lines := sc.lines[:0]
	for i, a := range p.Analyses {
		if i > 0 {
			b = append(b, '\n')
		}
		lo := len(b)
		b = appendAnalysis(b, a)
		lines = append(lines, lineSpan{lo, len(b)})
	}
	// Built in input order, the encoding is canonical as it stands when the
	// lines came in byte order; otherwise it is written again behind itself
	// with the lines sorted.
	unsorted := b
	byLine := func(x, y lineSpan) int { return bytes.Compare(unsorted[x.lo:x.hi], unsorted[y.lo:y.hi]) }
	canonical := b
	if !slices.IsSortedFunc(lines, byLine) {
		// Equal lines are the same bytes, so an unstable sort cannot show.
		slices.SortFunc(lines, byLine)
		b = appendHeader(b, p.Resources)
		for i, l := range lines {
			if i > 0 {
				b = append(b, '\n')
			}
			b = append(b, unsorted[l.lo:l.hi]...)
		}
		canonical = b[len(unsorted):]
	}
	sc.buf, sc.lines = b, lines

	const prefix = "sha256:"
	sum := sha256.Sum256(canonical)
	var out [len(prefix) + 2*sha256.Size]byte
	copy(out[:], prefix)
	hex.Encode(out[len(prefix):], sum[:])
	return string(out[:])
}

func appendHeader(b []byte, r Envelope) []byte {
	b = append(b, fingerprintVersion+"|steps="...)
	b = strconv.AppendInt(b, int64(r.Steps), 10)
	b = appendHexFloat(append(b, "|time="...), r.TimeSec)
	b = strconv.AppendInt(append(b, "|mem="...), r.MemBytes, 10)
	b = appendHexFloat(append(b, "|bw="...), r.Bandwidth)
	return append(b, '\n')
}

func appendAnalysis(b []byte, a Analysis) []byte {
	w := a.Weight
	if w == 0 {
		w = 1
	}
	itv := a.MinInterval
	if itv <= 0 {
		itv = 1
	}
	b = append(append(b, "name="...), a.Name...)
	b = appendHexFloat(append(b, "|ft="...), a.FTSec)
	b = appendHexFloat(append(b, "|it="...), a.ITSec)
	b = appendHexFloat(append(b, "|ct="...), a.CTSec)
	b = appendHexFloat(append(b, "|ot="...), a.OTSec)
	b = strconv.AppendInt(append(b, "|fm="...), a.FMBytes, 10)
	b = strconv.AppendInt(append(b, "|im="...), a.IMBytes, 10)
	b = strconv.AppendInt(append(b, "|cm="...), a.CMBytes, 10)
	b = strconv.AppendInt(append(b, "|om="...), a.OMBytes, 10)
	b = appendHexFloat(append(b, "|w="...), w)
	b = strconv.AppendInt(append(b, "|itv="...), int64(itv), 10)
	return strconv.AppendBool(append(b, "|oo="...), a.OutputOptional)
}

// appendHexFloat encodes v exactly (no rounding) and maps -0 onto +0 so the
// two zero bit patterns hash equal, matching their arithmetic equality.
func appendHexFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v+0, 'x', -1, 64)
}
