package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// fingerprintOracle is the implementation Fingerprint replaced, kept verbatim:
// one Sprintf per analysis, sort.Strings, strings.Join, a streaming hash. The
// one-buffer version is held to it bit for bit.
func fingerprintOracle(p Problem) string {
	lines := make([]string, len(p.Analyses))
	for i, a := range p.Analyses {
		w := a.Weight
		if w == 0 {
			w = 1
		}
		itv := a.MinInterval
		if itv <= 0 {
			itv = 1
		}
		lines[i] = fmt.Sprintf("name=%s|ft=%s|it=%s|ct=%s|ot=%s|fm=%d|im=%d|cm=%d|om=%d|w=%s|itv=%d|oo=%t",
			a.Name, hexFloat(a.FTSec), hexFloat(a.ITSec), hexFloat(a.CTSec), hexFloat(a.OTSec),
			a.FMBytes, a.IMBytes, a.CMBytes, a.OMBytes, hexFloat(w), itv, a.OutputOptional)
	}
	sort.Strings(lines)
	h := sha256.New()
	fmt.Fprintf(h, "%s|steps=%d|time=%s|mem=%d|bw=%s\n", fingerprintVersion,
		p.Resources.Steps, hexFloat(p.Resources.TimeSec), p.Resources.MemBytes, hexFloat(p.Resources.Bandwidth))
	h.Write([]byte(strings.Join(lines, "\n")))
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

func hexFloat(v float64) string {
	return strconv.FormatFloat(v+0, 'x', -1, 64)
}

// oracleNames are the name shapes that could confuse a line-oriented
// encoding: separators of the format itself, newlines, nothing at all,
// prefixes of one another, bytes that are not UTF-8.
var oracleNames = []string{
	"", "a", "b", "ab", "a|b", "a=b", "name=a", "a\n", "a\nb", "\n", "|", "=",
	"msd", "rdf", "descriptors", "è", "解析", "\xff\xfe", "a\x00", "A", "a|ft=0x0p+00",
}

// oracleFloats span the float formats: both zeros, denormals, the extremes,
// non-finite values, ordinary durations.
var oracleFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.25, 1.5, 129.35, 1e-9, 5e-324, -5e-324, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 1 << 53, 4.536e9,
}

var oracleInts = []int64{
	0, 1, -1, 2, 10, 1000, 1 << 20, 1 << 30, 12 << 30, math.MaxInt64, math.MinInt64, -(1 << 40),
}

func pick[T any](rng *rand.Rand, from []T) T { return from[rng.Intn(len(from))] }

func oracleFloat(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	return pick(rng, oracleFloats)
}

func oracleInt(rng *rand.Rand) int64 {
	if rng.Intn(3) == 0 {
		return rng.Int63() >> uint(rng.Intn(63))
	}
	return pick(rng, oracleInts)
}

func oracleAnalysis(rng *rand.Rand) Analysis {
	name := pick(rng, oracleNames)
	if rng.Intn(4) == 0 {
		name += strconv.Itoa(rng.Intn(30))
	}
	return Analysis{
		Name:  name,
		FTSec: oracleFloat(rng), ITSec: oracleFloat(rng), CTSec: oracleFloat(rng), OTSec: oracleFloat(rng),
		FMBytes: oracleInt(rng), IMBytes: oracleInt(rng), CMBytes: oracleInt(rng), OMBytes: oracleInt(rng),
		Weight:         oracleFloat(rng),
		MinInterval:    int(oracleInt(rng)),
		OutputOptional: rng.Intn(2) == 0,
	}
}

// oracleProblem draws one scenario; about one in three repeats an analysis
// line, and analyses arrive sorted, reversed or shuffled.
func oracleProblem(rng *rand.Rand) Problem {
	p := Problem{Resources: Envelope{
		Steps: int(oracleInt(rng)), TimeSec: oracleFloat(rng), MemBytes: oracleInt(rng), Bandwidth: oracleFloat(rng),
	}}
	for n := rng.Intn(9); n > 0; n-- {
		p.Analyses = append(p.Analyses, oracleAnalysis(rng))
	}
	if len(p.Analyses) > 0 && rng.Intn(3) == 0 {
		p.Analyses = append(p.Analyses, pick(rng, p.Analyses))
	}
	switch rng.Intn(3) {
	case 0:
		sort.Slice(p.Analyses, func(i, j int) bool { return p.Analyses[i].Name < p.Analyses[j].Name })
	case 1:
		sort.Slice(p.Analyses, func(i, j int) bool { return p.Analyses[i].Name > p.Analyses[j].Name })
	}
	return p
}

func TestFingerprintMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2015))
	for i := 0; i < 25000; i++ {
		p := oracleProblem(rng)
		if got, want := p.Fingerprint(), fingerprintOracle(p); got != want {
			t.Fatalf("scenario %d: Fingerprint = %s, oracle %s\n%+v", i, got, want, p)
		}
	}
}

// FuzzFingerprint lets the fuzzer pick the names and numbers of a
// three-analysis scenario (the third repeats the first when dup is set).
func FuzzFingerprint(f *testing.F) {
	f.Add("a", "b", "c", 1.5, 0.0, int64(1<<20), 10, false, 100)
	f.Add("a|b", "a", "a\nb", math.Copysign(0, -1), 5e-324, int64(-1), 0, true, 0)
	f.Add("", "=", "解析", math.Inf(1), -1.0, int64(math.MinInt64), -3, true, -7)
	f.Fuzz(func(t *testing.T, n1, n2, n3 string, x, y float64, m int64, itv int, dup bool, steps int) {
		p := Problem{
			Resources: Envelope{Steps: steps, TimeSec: x, MemBytes: m, Bandwidth: y},
			Analyses: []Analysis{
				{Name: n1, CTSec: x, OTSec: y, FMBytes: m, MinInterval: itv, OutputOptional: dup},
				{Name: n2, FTSec: y, ITSec: x, CMBytes: m, Weight: y, MinInterval: -itv},
				{Name: n3, CTSec: y, IMBytes: m, OMBytes: -m, Weight: x},
			},
		}
		if dup {
			p.Analyses[2] = p.Analyses[0]
		}
		if got, want := p.Fingerprint(), fingerprintOracle(p); got != want {
			t.Fatalf("Fingerprint = %s, oracle %s\n%+v", got, want, p)
		}
	})
}

func TestFingerprintAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the pooled scratch is dropped at random under -race")
	}
	p := twoAnalysisProblem()
	q := twoAnalysisProblem()
	q.Analyses[0], q.Analyses[1] = q.Analyses[1], q.Analyses[0] // takes the sort
	for _, pr := range []Problem{p, q} {
		pr.Fingerprint() // the first call sizes the pooled scratch
		if n := testing.AllocsPerRun(200, func() { _ = pr.Fingerprint() }); n > 2 {
			t.Errorf("Fingerprint allocates %v objects per call, want at most 2", n)
		}
	}
}

func BenchmarkFingerprint(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := Problem{Resources: Envelope{Steps: 1000, TimeSec: 129.35, MemBytes: 12 << 30}}
	for i := 0; i < 8; i++ {
		a := oracleAnalysis(rng)
		a.Name = fmt.Sprintf("s2015.p0.analysis-%d", i)
		p.Analyses = append(p.Analyses, a)
	}
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = p.Fingerprint()
		}
	})
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = fingerprintOracle(p)
		}
	})
}
