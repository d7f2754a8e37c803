package iosim

import (
	"testing"
	"time"
)

func TestBurstBufferFastWhenDrainKeepsUp(t *testing.T) {
	bb := NewBurstBuffer()
	bytes := int64(91) << 30
	// Outputs every 500 s: GPFS (240 GB/s peak here) drains 91 GB easily.
	total := bb.SustainedOutputTime(bytes, 10, 500*time.Second)
	direct := GPFS().WriteTime(bytes) * 10
	if total >= direct {
		t.Fatalf("burst buffer (%v) should beat direct GPFS (%v)", total, direct)
	}
	perWrite := total / 10
	nvram := NVRAM().WriteTime(bytes)
	if perWrite > 2*nvram {
		t.Fatalf("per-write %v should be near NVRAM speed %v", perWrite, nvram)
	}
}

func TestBurstBufferBackpressure(t *testing.T) {
	bb := NewBurstBuffer()
	bb.Back = &Target{BytesPerSec: 1e9} // 1 GB/s drain
	bytes := nvramCapacity * 3 / 4
	// Back-to-back writes: the second cannot fit until the first drains.
	first := bb.Write(bytes, 0)
	second := bb.Write(bytes, time.Second)
	third := bb.Write(bytes, time.Second)
	if second <= first {
		t.Fatalf("backpressure missing: first %v, second %v", first, second)
	}
	if third < second/2 {
		t.Fatalf("sustained backpressure should persist: %v then %v", second, third)
	}
	if bb.Backlog() <= 0 {
		t.Fatal("backlog should be nonzero under pressure")
	}
}

func TestBurstBufferDrainsOverTime(t *testing.T) {
	bb := NewBurstBuffer()
	bb.Write(10<<30, 0)
	if bb.Backlog() != 10<<30 {
		t.Fatalf("backlog = %d", bb.Backlog())
	}
	// A long quiet interval drains everything.
	bb.Write(1<<20, time.Hour)
	if bb.Backlog() != 1<<20 {
		t.Fatalf("backlog after drain = %d, want just the new write", bb.Backlog())
	}
	bb.Reset()
	if bb.Backlog() != 0 {
		t.Fatal("reset failed")
	}
}

func TestBurstBufferZeroBytes(t *testing.T) {
	bb := NewBurstBuffer()
	if bb.Write(0, 0) != 0 {
		t.Fatal("zero write must be free")
	}
}
