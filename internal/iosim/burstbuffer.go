package iosim

import "time"

// BurstBuffer models the NVRAM tier the paper anticipates between compute
// nodes and the file system (§1, §5.3.5): writes land in fast NVRAM and
// drain asynchronously to the backing store. As long as the drain keeps up
// with the output cadence, the simulation only sees the NVRAM write time —
// which is how "selecting a different resource for storing output" buys
// more in-situ analyses in Table 7. When outputs arrive faster than the
// backing store drains, the backlog causes backpressure and the visible
// write time degrades toward the backing store's.
type BurstBuffer struct {
	Front *Target // fast tier (NVRAM)
	Back  *Target // backing store (GPFS)

	backlog int64 // bytes still to drain
}

// nvramCapacity is the buffer's aggregate NVRAM, 2 TiB; a write that does not
// fit after draining stalls until space frees up.
const nvramCapacity int64 = 1 << 41

// NewBurstBuffer builds an NVRAM-over-GPFS buffer.
func NewBurstBuffer() *BurstBuffer {
	return &BurstBuffer{Front: NVRAM(), Back: GPFS()}
}

// Backlog returns the bytes currently waiting to drain.
func (b *BurstBuffer) Backlog() int64 { return b.backlog }

// Write models an output of `bytes` issued `sinceLast` after the previous
// one and returns the time visible to the simulation. The elapsed interval
// drains the backlog at the backing store's bandwidth first; if the new
// write does not fit in the remaining capacity, the writer stalls for the
// additional drain time.
func (b *BurstBuffer) Write(bytes int64, sinceLast time.Duration) time.Duration {
	if bytes <= 0 {
		return 0
	}
	// Drain during the elapsed interval.
	drained := int64(sinceLast.Seconds() * b.Back.BytesPerSec)
	if drained >= b.backlog {
		b.backlog = 0
	} else {
		b.backlog -= drained
	}

	visible := b.Front.WriteTime(bytes)
	// Stall if the write does not fit until enough backlog drains.
	if b.backlog+bytes > nvramCapacity {
		excess := b.backlog + bytes - nvramCapacity
		stall := time.Duration(float64(excess) / b.Back.BytesPerSec * float64(time.Second))
		visible += stall
		b.backlog -= excess
		if b.backlog < 0 {
			b.backlog = 0
		}
	}
	b.backlog += bytes
	return visible
}

// Reset clears the backlog.
func (b *BurstBuffer) Reset() {
	b.backlog = 0
}

// SustainedOutputTime models `count` periodic outputs of `bytes` each,
// spaced `interval` apart, and returns the total visible write time — the
// quantity a Table-7 style planner would subtract from the run's output
// budget when moving output from GPFS to NVRAM.
func (b *BurstBuffer) SustainedOutputTime(bytes int64, count int, interval time.Duration) time.Duration {
	b.Reset()
	var total time.Duration
	for i := 0; i < count; i++ {
		since := interval
		if i == 0 {
			since = 0
		}
		total += b.Write(bytes, since)
	}
	return total
}
