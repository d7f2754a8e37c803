package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	workload workload
	seed     int64
	seconds  float64
	size     size
	// setupReps is how many times set-up is repeated to report its median.
	setupReps int
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is the process's peak resident set: VmHWM of /proc/self/status.
// getrusage's ru_maxrss will not do, because it survives exec: under `go run`
// it reports the go command's own 26 MiB for every workload smaller than that.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kib / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}

// setupBudget is how long set-up may be repeated past its fifth time.
const setupBudget = 2.0

// setUp generates the inputs, computes the references once (untimed: they are
// the harness's cost, not the system's), then times generate + start + one
// deep-checked warm-up pass, reps times over. It returns the last instance,
// ready to measure, and the set-up times. Any warm-up failure is returned in
// the sink.
func setUp(cfg runConfig) (generated, instance, []float64, *sink, error) {
	gen := cfg.workload.generate(cfg.seed, cfg.size)
	if err := gen.reference(); err != nil {
		return nil, nil, nil, nil, fmt.Errorf("%s: %w", cfg.workload.name, err)
	}
	var inst instance
	var times []float64
	var spent float64
	warm := &sink{}
	// Cheap set-ups are repeated up to cfg.setupReps times; dear ones stop at
	// five once they have used their budget.
	for r := 0; r < cfg.setupReps && (r < 5 || spent < setupBudget); r++ {
		t0 := time.Now()
		// Regenerating is part of set-up; the references carry over because
		// the same seed generates the same inputs.
		cfg.workload.generate(cfg.seed, cfg.size)
		inst = gen.start()
		inst.pass(0, true, warm)
		times = append(times, time.Since(t0).Seconds())
		spent += times[r]
	}
	return gen, inst, times, warm, nil
}

// block is a stretch of whole passes at least blockSeconds long: the unit CPU
// cost is computed over where clients run side by side and no op has the
// process's CPU clock to itself. It is long enough to hold several collector
// cycles of the allocation-heavy service.
type block struct {
	ops       int
	wall, cpu float64 // seconds
}

const blockSeconds = 0.1

// measure runs whole passes until the measured phase has lasted at least
// seconds (always at least one pass), cutting the phase into blocks. Passes
// are never cut short: every op of the list weighs the same in every run. A
// last block shorter than blockSeconds is dropped unless it is the only one.
func measure(inst instance, seconds float64, s *sink) (passes int, blocks []block) {
	t0 := time.Now()
	start, ops := t0, 0
	cpu0 := cpuSeconds()
	for {
		passes++
		inst.pass(passes, false, s)
		ops += inst.ops()
		now := time.Now()
		done := now.Sub(t0).Seconds() >= seconds
		if wall := now.Sub(start).Seconds(); wall >= blockSeconds || (done && len(blocks) == 0) {
			cpu1 := cpuSeconds()
			blocks = append(blocks, block{ops: ops, wall: wall, cpu: cpu1 - cpu0})
			start, cpu0, ops = now, cpu1, 0
		}
		if done {
			return passes, blocks
		}
	}
}

// runEndToEnd measures one workload with tracing off and reports the
// end-to-end metrics. Timings are the quietest the run saw (see
// sink.quietest): the latency percentiles are taken over the op list with
// each op at its lowest latency, throughput is what the closed-loop clients
// complete per second at those latencies, and CPU cost is the mean over the op
// list of each op's lowest CPU time (with several clients: the cheapest
// block). Allocation is exact and taken over the whole phase.
func runEndToEnd(cfg runConfig) (result, []string, error) {
	_, inst, setupTimes, warm, err := setUp(cfg)
	if err != nil {
		return result{}, nil, err
	}

	s := &sink{perOpCPU: cfg.workload.clients == 1}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	passes, blocks := measure(inst, cfg.seconds, s)
	runtime.ReadMemStats(&m1)

	ops := passes * inst.ops()
	cpuPerOp := math.Inf(1)
	if s.perOpCPU {
		cpuPerOp = mean(s.quietest(s.cpuMS, inst.ops()))
	} else {
		for _, b := range blocks {
			cpuPerOp = math.Min(cpuPerOp, b.cpu*1e3/float64(b.ops))
		}
	}
	quiet := s.quietest(s.ms, inst.ops())
	sort.Float64s(quiet)
	values := map[string]float64{
		"setup_s":         median(setupTimes),
		"ops_per_s":       float64(cfg.workload.clients) * 1e3 / mean(quiet),
		"op_ms_p50":       percentile(quiet, 0.50),
		"op_ms_p90":       percentile(quiet, 0.90),
		"cpu_ms_per_op":   cpuPerOp,
		"alloc_kb_per_op": float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(ops),
	}
	messages := append(warm.messages, s.messages...)
	// A warm-up failure is a wrong answer like any other; it is counted with
	// the measured ops so that it cannot hide behind a clean measured phase.
	res := newResult(endToEnd, values, ops+len(warm.ms), s.failed+warm.failed, len(s.ms) == ops)
	return res, messages, nil
}
