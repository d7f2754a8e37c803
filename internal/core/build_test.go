package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"insitu/internal/milp"
)

// checkEvaluator compares the arithmetic evaluator with the materialised
// lists it replaces in enumeration.
func checkEvaluator(t *testing.T, a AnalysisSpec, steps, count, k int) {
	t.Helper()
	as := expandSteps(steps, count)
	os := expandOutputs(as, k)
	outputs, peak := modeOutputsPeak(&a, steps, count, k)
	if want := modePeakMemory(a, steps, as, os); outputs != len(os) || peak != want {
		t.Fatalf("steps=%d count=%d k=%d spec=%+v: evaluator (%d outputs, peak %d), step lists (%d, %d)",
			steps, count, k, a, outputs, peak, len(os), want)
	}
}

func TestModeOutputsPeakExhaustive(t *testing.T) {
	grid := []int64{0, 3, 1 << 20}
	for _, fm := range grid {
		for _, im := range grid {
			for _, cm := range grid {
				for _, om := range grid {
					a := AnalysisSpec{FM: fm, IM: im, CM: cm, OM: om}
					for steps := 1; steps <= 40; steps++ {
						for count := 1; count <= steps; count++ {
							for k := 0; k <= count; k++ {
								checkEvaluator(t, a, steps, count, k)
							}
						}
					}
				}
			}
		}
	}
}

func TestModeOutputsPeakRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	draw := func() int64 { // zero a third of the time
		if rng.Intn(3) == 0 {
			return 0
		}
		return rng.Int63n(1 << 30)
	}
	for trial := 0; trial < 20000; trial++ {
		steps := 1 + rng.Intn(5000)
		count := 1 + rng.Intn(steps)
		if rng.Intn(2) == 0 {
			count = 1 + rng.Intn(1+steps/(1+rng.Intn(50))) // the sparse counts real intervals give
		}
		k := rng.Intn(count + 1)
		checkEvaluator(t, AnalysisSpec{FM: draw(), IM: draw(), CM: draw(), OM: draw()}, steps, count, k)
	}
}

// buildUnnamed is the build Solve runs.
func buildUnnamed(t testing.TB, specs []AnalysisSpec, res Resources, opts SolveOptions) (*milp.Problem, modeTable) {
	t.Helper()
	norm, err := normalizeSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := buildCompactProblem(norm, res, opts, -1)
	if err != nil {
		t.Fatal(err)
	}
	return &m.prob, m.tab
}

// TestBuildAllocationBudget pins that the build allocates its arrays, not its
// candidates: a fixed small number of allocations however many (count, k)
// pairs were priced (55 per analysis at 1000 steps, 210 at 2000; the
// materialising enumerator made 997 allocations at 1000).
func TestBuildAllocationBudget(t *testing.T) {
	norm, err := normalizeSpecs(fourAnalyses())
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(steps int) float64 {
		res := Resources{Steps: steps, TimeThreshold: 60, MemThreshold: 1 << 30}
		return testing.AllocsPerRun(20, func() {
			if _, err := buildCompactProblem(norm, res, SolveOptions{}, -1); err != nil {
				t.Fatal(err)
			}
		})
	}
	at1000, at2000 := allocs(1000), allocs(2000)
	if at1000 > 32 {
		t.Errorf("build at 1000 steps made %.0f allocations, budget 32", at1000)
	}
	if at2000 > at1000 {
		t.Errorf("build made %.0f allocations at 2000 steps against %.0f at 1000: the count follows the candidates", at2000, at1000)
	}
}

// TestSolveModelIsUnnamed: the model Solve hands the solver has no column
// names, the solver's diagnostics still say which variable they mean, and
// the naming step produces exactly the historical names.
func TestSolveModelIsUnnamed(t *testing.T) {
	res := Resources{Steps: 1000, TimeThreshold: 60, MemThreshold: 1 << 30}
	prob, tab := buildUnnamed(t, fourAnalyses(), res, SolveOptions{})
	if len(prob.LP.Names) != 0 {
		t.Fatalf("solver-side model carries %d column names", len(prob.LP.Names))
	}
	prob.LP.Upper[3] = math.Inf(1)
	_, err := milp.Solve(prob, milp.Options{})
	if err == nil || !strings.Contains(err.Error(), "variable 3 (x3)") {
		t.Fatalf("unnamed model's diagnostic does not identify the variable: %v", err)
	}
	names, err := CompactNames(fourAnalyses(), res, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(tab.modes) || names[0] != "x[A1,n=1,k=1]" {
		t.Fatalf("CompactNames = %d names starting %q, want %d starting x[A1,n=1,k=1]", len(names), names[0], len(tab.modes))
	}
}

// TestCloneDoesNotShareRows: the built model's rows are windows of shared
// arrays; a Clone must own its rows outright, so editing one of the clone's
// rows reaches neither the original nor the clone's other rows.
func TestCloneDoesNotShareRows(t *testing.T) {
	res := Resources{Steps: 1000, TimeThreshold: 60, MemThreshold: 1 << 30}
	prob, _ := buildUnnamed(t, fourAnalyses(), res, SolveOptions{})
	pristine, _ := buildUnnamed(t, fourAnalyses(), res, SolveOptions{})
	clone := prob.LP.Clone()
	for k := range clone.Constraints[0].Coef {
		clone.Constraints[0].Coef[k] = 7
		clone.Constraints[0].Idx[k] += 1000
	}
	if !reflect.DeepEqual(prob.LP.Constraints, pristine.LP.Constraints) {
		t.Fatal("editing a row of the clone changed the original's rows")
	}
	if !reflect.DeepEqual(clone.Constraints[1:], pristine.LP.Constraints[1:]) {
		t.Fatal("editing a row of the clone changed the clone's other rows")
	}
	// And an append to one membership row of the original cannot run into
	// the next analysis' window.
	row := prob.LP.Constraints[0]
	_ = append(row.Idx, -1)
	_ = append(row.Coef, -1)
	if !reflect.DeepEqual(prob.LP.Constraints, pristine.LP.Constraints) {
		t.Fatal("appending to a membership row overwrote its neighbour")
	}
}

// denseInstance is the one-analysis request whose build used to take seconds:
// itv = 1 puts every count from 1 to Steps, and every stride under each, in
// the table (29 778 columns at 800 steps).
func denseInstance(steps int) ([]AnalysisSpec, Resources) {
	return []AnalysisSpec{{Name: "dense", CT: 1, OT: 1, FM: 1, CM: 1, OM: 1, MinInterval: 1}}, Resources{Steps: steps}
}

// cancelAfter is a context whose Err reports Canceled from its (after+1)-th
// call on, and counts the calls. The mode enumeration checks once per count,
// before it enumerates the count's modes, and reads the cause of the
// cancellation into its error once more.
type cancelAfter struct {
	context.Context
	after, calls int
}

func (c *cancelAfter) Err() error {
	if c.calls++; c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestBuildHonoursContext: a build stops at the first cancel check that sees
// the cancellation. Canceled from the start, it enumerates none of the
// dense instance's 29 778 modes; canceled at its fourth check, only those of
// counts 1 to 3 — where not stopping would make 800 checks.
func TestBuildHonoursContext(t *testing.T) {
	specs, res := denseInstance(800)
	_, tab := buildUnnamed(t, specs, res, SolveOptions{Ctx: context.Background()})
	if len(tab.modes) != 29778 {
		t.Fatalf("uncancelled build has %d columns, want 29778", len(tab.modes))
	}
	for name, call := range map[string]func(ctx context.Context) error{
		"Solve": func(ctx context.Context) error { _, err := Solve(specs, res, SolveOptions{Ctx: ctx}); return err },
		"Explain": func(ctx context.Context) error {
			_, err := Explain(specs, res, SolveOptions{Ctx: ctx})
			return err
		},
		"CompactNames": func(ctx context.Context) error {
			_, err := CompactNames(specs, res, SolveOptions{Ctx: ctx})
			return err
		},
	} {
		for _, after := range []int{0, 3} {
			ctx := &cancelAfter{Context: context.Background(), after: after}
			if err := call(ctx); !errors.Is(err, milp.ErrCanceled) {
				t.Errorf("%s canceled after %d counts returned %v, want an error wrapping milp.ErrCanceled", name, after, err)
			}
			if ctx.calls != after+2 {
				t.Errorf("%s canceled after %d counts called Err %d times, want %d", name, after, ctx.calls, after+2)
			}
		}
	}
}

// TestEstimateColumns: the estimate never undercounts the model Solve builds
// (it is the capacity the build allocates, summed over un-normalised specs),
// and on a request too large to build it stops at the limit instead of
// counting to the end.
func TestEstimateColumns(t *testing.T) {
	const noLimit = math.MaxInt
	dense, denseRes := denseInstance(800)
	raw := append([]AnalysisSpec{{Name: "defaults", CT: 1, MinInterval: 0}, {Name: "optional", CT: 1, OT: 1, MinInterval: -3, OutputOptional: true}}, fourAnalyses()...)
	for _, in := range []struct {
		name  string
		specs []AnalysisSpec
		res   Resources
	}{
		{"dense", dense, denseRes},
		{"paper", fourAnalyses(), Resources{Steps: 1000, TimeThreshold: 60, MemThreshold: 1 << 30}},
		{"raw", raw, Resources{Steps: 90, TimeThreshold: 500}},
		{"steps below every interval", fourAnalyses(), Resources{Steps: 1}},
	} {
		_, tab := buildUnnamed(t, in.specs, in.res, SolveOptions{})
		est := EstimateColumns(in.specs, in.res, noLimit)
		if est != cap(tab.modes) || est < len(tab.modes) {
			t.Errorf("%s: estimate %d, build allocated %d and kept %d columns", in.name, est, cap(tab.modes), len(tab.modes))
		}
		if half := est / 2; est > 1 {
			if got := EstimateColumns(in.specs, in.res, half); got <= half || got > est {
				t.Errorf("%s: estimate against limit %d = %d, want above the limit and at most %d", in.name, half, got, est)
			}
		}
	}

	// A billion steps at interval one: the count stops at the first count
	// that takes the total past the limit, a few thousand counts into the
	// first analysis, and never reaches the second.
	huge := []AnalysisSpec{{Name: "huge", CT: 1, MinInterval: 1}, {Name: "huge2", CT: 1, MinInterval: 1}}
	want, visited := 0, 0
	for want <= 200_000 {
		visited++
		want += countModeBound(huge[0], visited)
	}
	if got := EstimateColumns(huge, Resources{Steps: 1e9}, 200_000); got != want {
		t.Errorf("bounded estimate = %d, want %d, the total of the first analysis' first %d counts", got, want, visited)
	}
	if got := EstimateColumns(huge, Resources{Steps: -4}, 10); got != 0 {
		t.Errorf("estimate for negative steps = %d, want 0", got)
	}
}

// BenchmarkBuildCompact times the model build alone — what core adds in front
// of every milp.Solve — on a paper instance and on the 100-analysis synthetic
// campaign, as Solve builds it (unnamed) and as CompactNames and ExportLP do.
func BenchmarkBuildCompact(b *testing.B) {
	for _, in := range []struct {
		name  string
		specs []AnalysisSpec
		res   Resources
		opts  SolveOptions
	}{
		{"paper", fourAnalyses(), Resources{Steps: 1000, TimeThreshold: 60, MemThreshold: 1 << 30}, SolveOptions{}},
		{"sparse100", LargeSparseSpecs(100), Resources{Steps: 1000, TimeThreshold: 600 * 100.0 / 220, MemThreshold: 12 << 30}, SolveOptions{MaxCount: 4}},
	} {
		norm, err := normalizeSpecs(in.specs)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(in.name+"/unnamed", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := buildCompactProblem(norm, in.res, in.opts, -1)
				if err != nil || m.lp.NumVars() == 0 {
					b.Fatal(err)
				}
			}
		})
		b.Run(in.name+"/named", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if names, err := CompactNames(in.specs, in.res, in.opts); err != nil || len(names) == 0 {
					b.Fatal(err)
				}
			}
		})
	}
}
