package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sync"
	"time"

	"insitu/internal/core"
)

// A workload is one named set of inputs. generate derives everything from the
// seed and touches no solver; start builds the system under test around the
// generated inputs. size selects the committed full-size inputs or the small
// ones the tier-1 smoke tests use.
type workload struct {
	name string
	why  string
	// clients is how many closed-loop callers run ops at the same time.
	clients  int
	generate func(seed int64, sz size) generated
}

type size int

const (
	full  size = iota // the sizes BENCHMARK.json's numbers are measured at
	small             // tier-1 smoke: same code paths, a fraction of the work
)

// generated is a workload's seed-derived input set.
type generated interface {
	// opList is the canonical byte form of the op list: equal seeds give equal
	// bytes, different seeds different bytes.
	opList() []byte
	// reference computes the expected answers with the other-width search
	// driver (or loads the committed ones). It runs once per process, outside
	// every timed region including set-up.
	reference() error
	// start builds the system under test. Its cost is part of setup_s.
	start() instance
	// probeInputs hands the traced run this workload's inputs for the probe
	// groups (probe.go) whose layers its ops cross; the rest stay nil.
	probeInputs() probeInputs
}

// instance is a started workload: passes over its op list can be run on it.
type instance interface {
	// ops is the number of ops in one pass.
	ops() int
	// pass runs every op of the list once. p numbers the pass (0 is the
	// warm-up) and varies the inputs so that no (specs, resources) pair recurs
	// inside a run except where the workload says so. deep additionally runs
	// the expensive answer checks (Recommendation.Validate and friends) that
	// the measured passes replace by the objective comparison.
	pass(p int, deep bool, sink *sink)
}

// sink collects what the passes of one run measured: one latency sample per
// executed op, failures counted against attempts, and the first few failure
// messages.
type sink struct {
	mu       sync.Mutex
	rec      *recorder // nil unless this is the traced run
	perOpCPU bool      // read the process's CPU clock around every op
	ms       []float64 // latency of each executed op, milliseconds
	cpuMS    []float64 // process CPU time over the op (single-client workloads only)
	ids      []int     // its position in the op list
	class    []byte    // its class tag (workload-defined; 0 when unused)
	failed   int
	messages []string
}

// quietest returns, per position in the op list, the lowest value of series
// (s.ms or s.cpuMS) any pass measured there. The op at a position does the
// same work in every pass, so its lowest latency is what that work costs when
// nothing else interferes; on a shared host the other samples mostly measure
// the neighbours (identical passes of sparse_default ranged from 0.97 s to
// 1.58 s inside one minute, CPU time inflating with wall time).
func (s *sink) quietest(series []float64, ops int) []float64 {
	out := make([]float64, ops)
	for i := range out {
		out[i] = math.Inf(1)
	}
	for k, id := range s.ids {
		if series[k] < out[id] {
			out[id] = series[k]
		}
	}
	return out
}

// timed runs one op under the harness clock (and an "op" span on traced
// runs), then checks it outside the timed region. check returns the op's
// class tag and "" when the answer is right.
func (s *sink) timed(opID int, call func(), check func() (byte, string)) {
	var cpu0, cpu1 float64
	if s.perOpCPU {
		cpu0 = cpuSeconds()
	}
	id := s.rec.begin("op", 0, opID)
	t0 := time.Now()
	call()
	d := time.Since(t0)
	s.rec.end(id)
	if s.perOpCPU {
		cpu1 = cpuSeconds()
	}
	class, msg := check()
	s.mu.Lock()
	s.ms = append(s.ms, float64(d.Nanoseconds())/1e6)
	s.cpuMS = append(s.cpuMS, (cpu1-cpu0)*1e3)
	s.ids = append(s.ids, opID)
	s.class = append(s.class, class)
	if msg != "" {
		s.failed++
		if len(s.messages) < 5 {
			s.messages = append(s.messages, fmt.Sprintf("op %d: %s", opID, msg))
		}
	}
	s.mu.Unlock()
}

// opDeadline bounds one solve; an op that runs into it counts as failed.
const opDeadline = 30 * time.Second

// problem is one scheduling instance with its expected optimum.
type problem struct {
	specs []core.AnalysisSpec
	res   core.Resources
	opts  core.SolveOptions
	ref   float64 // the optimal objective, found by the other-width search
}

// passTag is what pass p prefixes every analysis name with (after the seed's
// own tag), so that no (specs, resources) pair recurs inside a run and a
// whole-answer memo cannot turn repeated passes into hits. The numbers stay
// as they are: the solver never reads a name, so an op does exactly the same
// search in every pass, and an answer checked once at set-up stays right.
func passTag(p int) string { return fmt.Sprintf("p%d.", p) }

// solve runs core.Solve under the op deadline.
func (pr *problem) solve() (*core.Recommendation, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	opts := pr.opts
	opts.Ctx = ctx
	return core.Solve(pr.specs, pr.res, opts)
}

// otherWidth returns the search width the references are computed at: the
// serial driver checks the wave driver and the other way round.
func otherWidth(w int) int {
	if w >= 2 {
		return 0
	}
	return 2
}

// thresholdStep is the factor an unusable time threshold is moved by, and
// thresholdMoves how often computeRef tries.
const (
	thresholdStep  = 1 + 1.0/1024
	thresholdMoves = 8
)

// computeRef solves the problem with its own options and at the other width
// and keeps the common objective as the reference. A time threshold on which
// either search fails is moved up by thresholdStep and tried again, and the
// move is reported on standard error: core.Solve rejects its own answer
// ("compact solution failed validation") when a schedule's total time lies
// within the search's integrality tolerance above the threshold, which about
// one random threshold in ten thousand does on the paper's applications, and
// the benchmark's workloads are the ones on which no op fails. It reports
// whether the threshold moved.
func (pr *problem) computeRef() (moved bool, err error) {
	for try := 0; ; try++ {
		other := pr.opts
		other.Workers = otherWidth(pr.opts.Workers)
		var own, ref *core.Recommendation
		if own, err = core.Solve(pr.specs, pr.res, pr.opts); err == nil {
			ref, err = core.Solve(pr.specs, pr.res, other)
		}
		if err == nil {
			pr.ref = ref.Objective
			if msg := checkObjective(own.Objective, pr.ref); msg != "" {
				return moved, fmt.Errorf("the two search widths disagree: %s", msg)
			}
			return moved, nil
		}
		if try == thresholdMoves || pr.res.TimeThreshold <= 0 {
			return moved, err
		}
		fmt.Fprintf(os.Stderr, "benchmark: time threshold %v moved up by 1/1024: %v\n", pr.res.TimeThreshold, err)
		pr.res.TimeThreshold *= thresholdStep
		moved = true
	}
}

// relTol is how far an objective may sit from its reference.
const relTol = 1e-6

// checkObjective compares an objective with its reference.
func checkObjective(obj, ref float64) string {
	if math.Abs(obj-ref) > relTol*math.Max(1, math.Abs(ref)) {
		return fmt.Sprintf("objective %v, reference %v", obj, ref)
	}
	return ""
}

// checkRec verifies one core.Solve answer: no error, the objective at the
// reference, the budget respected, one schedule per analysis; deep
// re-validates the schedule against the raw constraint recurrences.
func (pr *problem) checkRec(rec *core.Recommendation, err error, deep bool) string {
	if err != nil {
		return err.Error()
	}
	if msg := checkObjective(rec.Objective, pr.ref); msg != "" {
		return msg
	}
	if len(rec.Schedules) != len(pr.specs) {
		return fmt.Sprintf("%d schedules for %d analyses", len(rec.Schedules), len(pr.specs))
	}
	if pr.res.TimeThreshold > 0 && rec.TotalTime > pr.res.TimeThreshold*(1+1e-9) {
		return fmt.Sprintf("total time %v exceeds threshold %v", rec.TotalTime, pr.res.TimeThreshold)
	}
	if deep {
		if err := rec.Validate(pr.specs, pr.res); err != nil {
			return err.Error()
		}
	}
	return ""
}

// subSeed derives an independent stream seed from the run seed and a label.
func subSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return int64(h.Sum64() >> 1)
}

// workloads lists the benchmark's workloads in run order.
func workloads() []workload {
	return []workload{paperSweep, sparseDefault, sparseWide, serviceMix, replanLoop, coupledRun}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
