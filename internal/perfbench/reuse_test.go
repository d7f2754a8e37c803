package perfbench

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"insitu/internal/core"
	"insitu/internal/experiments"
	"insitu/internal/lp"
	"insitu/internal/milp"
	"insitu/internal/replan"
	"insitu/internal/solvercheck"
)

// reuseCase is one instance of the reuse corpus. solve answers it with every
// wall-clock field zeroed, so that two answers compare whole: schedules,
// objective, peak memory and every milp.Stats counter, pivots,
// refactorizations, EtaPeak and PricedColumns included.
type reuseCase struct {
	name  string
	solve func() (any, error)
}

// solveCase is a reuseCase of one core.Solve.
func solveCase(name string, specs []core.AnalysisSpec, res core.Resources, opts core.SolveOptions) reuseCase {
	return reuseCase{name, func() (any, error) {
		rec, err := core.Solve(specs, res, opts)
		if err != nil {
			return nil, err
		}
		rec.SolveTime, rec.Stats.SolveTime = 0, 0
		return rec, nil
	}}
}

// paperInstances are the paper's three applications under the given
// fractions of their published thresholds.
func paperInstances(fractions ...float64) []reuseCase {
	apps := []struct {
		name      string
		specs     []core.AnalysisSpec
		threshold float64
	}{
		{"waterions", experiments.WaterIonsSpecs(16384), 129.35},
		{"rhodopsin", experiments.RhodopsinSpecs(), 200},
		{"flash", experiments.FlashSpecs(), 43.5},
	}
	var out []reuseCase
	for _, a := range apps {
		for _, f := range fractions {
			res := core.Resources{Steps: 1000, TimeThreshold: a.threshold * f, MemThreshold: 12 << 30}
			out = append(out, solveCase(fmt.Sprintf("%s@%g", a.name, f), a.specs, res, core.SolveOptions{}))
		}
	}
	return out
}

// reuseCorpus lists models of every size the pools serve, big, then small,
// then big again: a 100-analysis campaign, the paper's applications, a
// closed-loop replan run (an up-front solve and shrinking-horizon re-solves),
// a 30-analysis campaign at width 2, and the first campaign once more.
func reuseCorpus() []reuseCase {
	bigSpecs, bigRes := solvercheck.SparseCampaign(7, 100)
	smallSpecs, smallRes := solvercheck.SparseCampaign(11, 30)
	big := solveCase("sparse100", bigSpecs, bigRes, core.SolveOptions{MaxCount: 4})
	var sc replan.Scenario
	for _, c := range experiments.ReplanScenarios() {
		if c.Name == "bandwidth_degradation_3x" {
			sc = c
		}
	}
	corpus := []reuseCase{big}
	corpus = append(corpus, paperInstances(0.5, 1, 2)...)
	return append(corpus,
		reuseCase{"replan", func() (any, error) { return replan.Simulate(sc, true, 0) }},
		solveCase("sparse30", smallSpecs, smallRes, core.SolveOptions{MaxCount: 4, Workers: 2}),
		big,
	)
}

// TestPooledSolvesMatchFirstSolve: solves that take their working set from
// the pools of core, milp and lp answer exactly as the first solve of the same
// instance did, however the pools were left by the solves before them — one
// after the other, and four at a time. A milp.Solution kept from before owns
// its point, and a released lp.Solver refuses to run.
func TestPooledSolvesMatchFirstSolve(t *testing.T) {
	keptProb, err := core.CompactModel(experiments.RhodopsinSpecs(), core.Resources{Steps: 1000, TimeThreshold: 20, MemThreshold: 12 << 30}, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	kept, err := milp.Solve(keptProb, milp.Options{})
	if err != nil || !kept.HasX {
		t.Fatalf("kept solve: %v", err)
	}
	keptX := slices.Clone(kept.X)

	corpus := reuseCorpus()
	first := map[string]any{}
	check := func(c reuseCase) {
		got, err := c.solve()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			return
		}
		if want := first[c.name]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: a pooled solve answered\n%+v\nthe first solve\n%+v", c.name, got, want)
		}
	}
	for _, c := range corpus {
		if _, seen := first[c.name]; !seen {
			got, err := c.solve()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			first[c.name] = got
			continue
		}
		check(c)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range corpus {
				check(corpus[(i+3*g)%len(corpus)])
			}
		}()
	}
	wg.Wait()
	if !slices.Equal(kept.X, keptX) {
		t.Error("a kept milp.Solution's X changed under later solves")
	}

	// Release takes a NewSolvers call's solvers whole, and a released solver
	// panics on every method, a second Release included.
	p := keptProb.LP
	solvers, err := lp.NewSolvers(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := solvers[0]
	s.Solve(p.Lower, p.Upper)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Release of one Solver of a pair did not panic")
			}
		}()
		lp.Release(solvers[:1])
	}()
	lp.Release(solvers)
	for name, use := range map[string]func(){
		"Solve":        func() { s.Solve(p.Lower, p.Upper) },
		"SolveFrom":    func() { s.SolveFrom(nil, p.Lower, p.Upper) },
		"SolveCold":    func() { s.SolveCold(p.Lower, p.Upper) },
		"Basis":        func() { s.Basis() },
		"ReducedCosts": func() { s.ReducedCosts(make([]float64, p.NumVars()), make([]bool, p.NumVars())) },
		"FarkasRay":    func() { s.FarkasRay(make([]float64, len(p.Constraints))) },
		"Release":      func() { lp.Release(solvers) },
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "Release") {
					t.Errorf("%s on a released Solver: recovered %q, want a panic naming Release", name, msg)
				}
			}()
			use()
		}()
	}
}

// TestWarmPaperSolveAllocationBudget pins what a warm core.Solve of the
// paper's Table 5/6/8 instances allocates, now that the model, the search and
// the simplex states come from pools: 44 allocations and 3.5 KiB a solve,
// most of it the Recommendation and its step lists (it was 140 allocations
// and 47 KiB before the pools). The budgets leave a quarter of headroom.
// Under the race detector sync.Pool drops a share of what is put, at random,
// and a solve allocates about 78 times and 19 KiB; the budgets there only
// catch a pool that stopped being used.
func TestWarmPaperSolveAllocationBudget(t *testing.T) {
	mem := int64(12) << 30
	instances := []struct {
		specs []core.AnalysisSpec
		res   core.Resources
	}{
		{experiments.WaterIonsSpecs(16384), core.Resources{Steps: 1000, TimeThreshold: 129.35, MemThreshold: mem}},
		{experiments.WaterIonsSpecs(16384), core.Resources{Steps: 1000, TimeThreshold: 64.69, MemThreshold: mem}},
		{experiments.RhodopsinSpecs(), core.Resources{Steps: 1000, TimeThreshold: 200, MemThreshold: mem}},
		{experiments.RhodopsinSpecs(), core.Resources{Steps: 1000, TimeThreshold: 20, MemThreshold: mem}},
		{experiments.FlashSpecs(), core.Resources{Steps: 1000, TimeThreshold: 43.5, MemThreshold: mem}},
	}
	solveAll := func() {
		for _, in := range instances {
			if _, err := core.Solve(in.specs, in.res, core.SolveOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	solveAll() // warm the pools
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	perRun := testing.AllocsPerRun(runs, solveAll)
	runtime.ReadMemStats(&after)
	n := float64(len(instances))
	perSolve, bytesPerSolve := perRun/n, float64(after.TotalAlloc-before.TotalAlloc)/((runs+1)*n)
	t.Logf("a warm paper-table solve allocates %.1f times, %.0f bytes", perSolve, bytesPerSolve)
	allocBudget, byteBudget := 56.0, 4608.0
	if raceEnabled {
		allocBudget, byteBudget = 110, 32<<10
	}
	if perSolve > allocBudget {
		t.Errorf("a warm paper-table solve allocates %.1f times, want at most %.0f", perSolve, allocBudget)
	}
	if bytesPerSolve > byteBudget {
		t.Errorf("a warm paper-table solve allocates %.0f bytes, want at most %.0f", bytesPerSolve, byteBudget)
	}
}
