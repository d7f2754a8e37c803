// Package iosim models the storage side of the simulation-analysis workflow:
// parallel writes of simulation/analysis output and reads for
// post-processing. Targets carry an aggregate bandwidth and a per-operation
// latency; WriteTime/ReadTime convert data volumes to time the way the
// paper's ot = om/bw does. A faster NVRAM tier reproduces the paper's
// burst-buffer discussion (§1, §5.3.5): moving output to a higher-bandwidth
// resource shrinks ot and buys more in-situ analyses.
package iosim

import "time"

// Target is a storage tier reachable from the simulation site.
type Target struct {
	BytesPerSec float64       // aggregate sequential bandwidth
	Latency     time.Duration // per-operation latency (metadata, seek)
}

// GPFS returns a Mira-like GPFS file system: 240 GB/s peak aggregate
// bandwidth; sustained application bandwidth is a configurable fraction of
// peak (the paper's rhodopsin runs sustain ~0.45 GB/s per 91 GB output at
// 200.6 s, i.e. far below peak because of contention and small I/O).
func GPFS() *Target {
	return &Target{BytesPerSec: 240e9, Latency: 10 * time.Millisecond}
}

// NVRAM returns a node-local burst-buffer tier with much higher effective
// bandwidth and lower latency than the parallel file system.
func NVRAM() *Target {
	return &Target{BytesPerSec: 1.2e12, Latency: 50 * time.Microsecond}
}

// WriteTime returns the modeled time to write `bytes` in aggregate.
func (t *Target) WriteTime(bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	sec := float64(bytes) / t.BytesPerSec
	return t.Latency + time.Duration(sec*float64(time.Second))
}

// ReadTime returns the modeled time to read `bytes` back (post-processing).
// Reads of simulation trajectories are typically serial or low-parallelism,
// which is exactly the bottleneck Table 4 quantifies.
func (t *Target) ReadTime(bytes int64) time.Duration {
	return t.WriteTime(bytes)
}

// SustainedGPFS returns a GPFS target whose aggregate bandwidth is derated to
// the sustained application-visible value. The paper's 1B-atom rhodopsin run
// writes 91 GB per output step in about 20 s of wall time per step at the
// default frequency (200.6 s for 10 steps), i.e. ~4.5 GB/s sustained.
func SustainedGPFS() *Target {
	return &Target{BytesPerSec: 91e9 / 20.06, Latency: 10 * time.Millisecond}
}
