package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"

	"insitu/internal/core"
)

// sparseSpecs is perfbench's largeSparseSpecs generator, re-implemented here
// so the benchmark owns its inputs: n analyses with coarse minimum intervals
// whose compact model under a mode cap of 4 is a wide, sparse 0-1 program.
// Integer weights keep the objective integral.
func sparseSpecs(sub int64, n int) []core.AnalysisSpec {
	rng := rand.New(rand.NewSource(sub))
	specs := make([]core.AnalysisSpec, n)
	for i := range specs {
		specs[i] = core.AnalysisSpec{
			Name:        fmt.Sprintf("a%03d", i),
			CT:          0.25 + 0.25*float64(rng.Intn(12)),
			OT:          0.25 * float64(rng.Intn(4)),
			FM:          int64(rng.Intn(64)) << 20,
			CM:          int64(rng.Intn(64)) << 20,
			OM:          int64(rng.Intn(64)) << 20,
			Weight:      []float64{1, 1, 2, 3}[rng.Intn(4)],
			MinInterval: []int{50, 100, 200, 250}[rng.Intn(4)],
		}
	}
	return specs
}

func sparseProblem(sub int64, n, workers int) problem {
	return problem{
		specs: sparseSpecs(sub, n),
		res:   core.Resources{Steps: 1000, TimeThreshold: 600 * float64(n) / 220, MemThreshold: 12 << 30},
		opts:  core.SolveOptions{Workers: workers, MaxCount: 4},
	}
}

// The sparse pools are fixed lists of generator sub-seeds, not functions of
// the run seed. Branch-and-bound effort on this family is chaotic in the
// numbers: scaling one instance's threshold by 1+1e-9 moved it from 448
// nodes to 224, by 1+1e-6 to 11, and over 150 random instances the
// solve time has a coefficient of variation above 2 with multi-second
// outliers at every size tried — so pools drawn per seed differ by
// integer factors in cost and no bound could be held across seeds. The pools
// below were sized on the commit that introduced the benchmark (one pass
// about one second, no instance above a third of it). The run seed decides
// the order of the ops and tags every analysis name (with the pass number
// too), which changes every scenario fingerprint and leaves the search tree
// exactly as it is: the solver never reads a name.
var (
	sparseDefaultPool = pool{n: 100, workers: 0, subs: []int64{
		1000, 1001, 1002, 1004, 1005, 1008, 1009, 1011, 1012, 1014, 1015, 1018, 1024, 1025, 1036, 1039}}
	sparseWidePool = pool{n: 220, workers: 2, subs: []int64{
		2006, 2007, 2009, 2011, 2012, 2014, 2016, 2035, 2037, 2039, 2047, 2069}}
	// The small pools keep tier-1 fast; their references are computed.
	sparseDefaultSmall = pool{n: 40, workers: 0, subs: []int64{3000, 3001, 3004, 3007}}
	sparseWideSmall    = pool{n: 40, workers: 2, subs: []int64{3000, 3001, 3004, 3007}}
)

type pool struct {
	n, workers int
	subs       []int64
}

//go:embed testdata/sparse_refs.json
var sparseRefsJSON []byte

// sparseRefs maps "n/sub" to the committed optimal objective.
func sparseRefs() (map[string]float64, error) {
	refs := map[string]float64{}
	if err := json.Unmarshal(sparseRefsJSON, &refs); err != nil {
		return nil, fmt.Errorf("testdata/sparse_refs.json: %w", err)
	}
	return refs, nil
}

func refKey(n int, sub int64) string { return fmt.Sprintf("%d/%d", n, sub) }

// generate builds the seed's op list over the pool: shuffled order, seed tag.
// Committed references are used when every instance has one.
func (pl pool) generate(seed int64, label string) generated {
	g := &solveSet{tag: seedTag(seed)}
	subs := append([]int64(nil), pl.subs...)
	rng := rand.New(rand.NewSource(subSeed(seed, label)))
	rng.Shuffle(len(subs), func(i, j int) { subs[i], subs[j] = subs[j], subs[i] })
	refs, err := sparseRefs()
	haveAll := err == nil
	for _, sub := range subs {
		g.problems = append(g.problems, sparseProblem(sub, pl.n, pl.workers))
		ref, ok := refs[refKey(pl.n, sub)]
		haveAll = haveAll && ok
		g.committed = append(g.committed, ref)
	}
	if !haveAll {
		g.committed = nil
	}
	return g
}

var sparseDefault = workload{
	name:    "sparse_default",
	why:     "100-analysis synthetic campaigns at the default search width: the serial cold-node branch and bound that schedd, campaign and core.Solve run by default is nearly all of the work",
	clients: 1,
	generate: func(seed int64, sz size) generated {
		if sz == small {
			return sparseDefaultSmall.generate(seed, "sparse_default")
		}
		return sparseDefaultPool.generate(seed, "sparse_default")
	},
}

var sparseWide = workload{
	name:    "sparse_wide",
	why:     "220-analysis campaigns at Workers=2: the same milp and lp layers driven the other way (wave search, presolve, dual warm re-solves), so a gain at one width paid for at the other shows",
	clients: 1,
	generate: func(seed int64, sz size) generated {
		if sz == small {
			return sparseWideSmall.generate(seed, "sparse_wide")
		}
		return sparseWidePool.generate(seed, "sparse_wide")
	},
}
