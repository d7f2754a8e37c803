package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"insitu/internal/core"
	"insitu/internal/experiments"
)

// paperMem is the memory ceiling the paper instances are solved under.
const paperMem = int64(12) << 30

// paperApp is one of the paper's three applications with the time threshold
// of its published table row.
type paperApp struct {
	name      string
	specs     []core.AnalysisSpec
	threshold float64
}

func paperApps() []paperApp {
	return []paperApp{
		{"waterions", experiments.WaterIonsSpecs(16384), 129.35},
		{"rhodopsin", experiments.RhodopsinSpecs(), 200},
		{"flash", experiments.FlashSpecs(), 43.5},
	}
}

// paperTableProblems are the five Table 5/6/8 instances perfbench's
// solvePaperBatch solves, at the given search options.
func paperTableProblems(opts core.SolveOptions) []problem {
	apps := paperApps()
	at := func(a paperApp, th float64) problem {
		return problem{specs: a.specs, opts: opts, res: core.Resources{Steps: 1000, TimeThreshold: th, MemThreshold: paperMem}}
	}
	return []problem{
		at(apps[0], 129.35), at(apps[0], 64.69),
		at(apps[1], 200), at(apps[1], 20),
		at(apps[2], 43.5),
	}
}

// seededThresholds draws n thresholds per app between 0.25x and 4x its paper
// threshold, one per log-spaced stratum, so every seed covers the whole range
// (cheap root-only solves at the ends, branch and bound in the middle) and
// only the position inside each stratum moves with the seed.
func seededThresholds(rng *rand.Rand, a paperApp, n int, opts core.SolveOptions) []problem {
	out := make([]problem, n)
	for i := range out {
		f := 0.25 * math.Pow(16, (float64(i)+rng.Float64())/float64(n))
		out[i] = problem{specs: a.specs, opts: opts, res: core.Resources{Steps: 1000, TimeThreshold: a.threshold * f, MemThreshold: paperMem}}
	}
	return out
}

// paperSweep is the paper's own use of the solver: threshold sweeps over the
// published applications with the default options every caller gets.
var paperSweep = workload{
	name:    "paper_sweep",
	why:     "threshold sweeps over the paper's three applications at default options: sub-millisecond solves where core's build+validate is about half the work",
	clients: 1,
	generate: func(seed int64, sz size) generated {
		perApp := 128
		if sz == small {
			perApp = 4
		}
		rng := rand.New(rand.NewSource(subSeed(seed, "paper_sweep")))
		g := &solveSet{problems: paperTableProblems(core.SolveOptions{}), tag: seedTag(seed)}
		for _, a := range paperApps() {
			g.problems = append(g.problems, seededThresholds(rng, a, perApp, core.SolveOptions{})...)
		}
		rng.Shuffle(len(g.problems), func(i, j int) { g.problems[i], g.problems[j] = g.problems[j], g.problems[i] })
		return g
	},
}

// solveSet is a list of scheduling problems solved one after the other on one
// thread with core.Solve; it is the generated form and the instance of
// paper_sweep and both sparse workloads.
type solveSet struct {
	problems []problem
	// tag prefixes every analysis name, before the pass's own tag; it carries
	// the seed.
	tag string
	// committed holds reference objectives loaded from testdata, in problem
	// order (nil: compute them at the other width).
	committed []float64
}

func (g *solveSet) opList() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "tag=%s\n", g.tag)
	for _, pr := range g.problems {
		fmt.Fprintf(&b, "%+v %+v w=%d maxcount=%d\n", pr.specs, pr.res, pr.opts.Workers, pr.opts.MaxCount)
	}
	return b.Bytes()
}

func (g *solveSet) reference() error {
	for i := range g.problems {
		if g.committed != nil {
			g.problems[i].ref = g.committed[i]
			continue
		}
		if _, err := g.problems[i].computeRef(); err != nil {
			return fmt.Errorf("reference for problem %d: %w", i, err)
		}
	}
	return nil
}

func (g *solveSet) start() instance          { return g }
func (g *solveSet) ops() int                 { return len(g.problems) }
func (g *solveSet) probeInputs() probeInputs { return probeInputs{problems: g.problems} }

func (g *solveSet) pass(p int, deep bool, s *sink) {
	for i := range g.problems {
		pr := g.problems[i]
		pr.specs = retag(pr.specs, g.tag+passTag(p))
		var rec *core.Recommendation
		var err error
		s.timed(i,
			func() { rec, err = pr.solve() },
			func() (byte, string) { return 0, pr.checkRec(rec, err, deep) })
	}
}

// seedTag is the name prefix that carries the run seed.
func seedTag(seed int64) string { return fmt.Sprintf("s%d.", seed) }

// retag returns a copy of specs with every name prefixed.
func retag(specs []core.AnalysisSpec, prefix string) []core.AnalysisSpec {
	out := make([]core.AnalysisSpec, len(specs))
	for i, a := range specs {
		a.Name = prefix + a.Name
		out[i] = a
	}
	return out
}
