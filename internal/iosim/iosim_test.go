package iosim

import (
	"math"
	"testing"
	"time"
)

func TestWriteTimeLinearInBytes(t *testing.T) {
	g := GPFS()
	t1 := g.WriteTime(240e9, 0) // 1 second of payload + latency
	want := time.Second + g.Latency
	if d := t1 - want; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("write time = %v, want ~%v", t1, want)
	}
	if g.WriteTime(0, 0) != 0 {
		t.Fatal("zero bytes must cost zero")
	}
	if g.WriteTime(-1, 0) != 0 {
		t.Fatal("negative bytes must cost zero")
	}
}

func TestNVRAMFasterThanGPFS(t *testing.T) {
	bytes := int64(91 << 30)
	if NVRAM().WriteTime(bytes, 0) >= GPFS().WriteTime(bytes, 0) {
		t.Fatal("NVRAM must beat GPFS")
	}
}

func TestSustainedGPFSMatchesPaper(t *testing.T) {
	// The paper's 1B-atom rhodopsin run: 91 GB per output step, 10 steps in
	// 200.6 s -> ~20.06 s per write.
	s := SustainedGPFS()
	got := s.WriteTime(91e9, 32768).Seconds()
	if math.Abs(got-20.06) > 0.2 {
		t.Fatalf("91 GB write = %.2fs, want ~20.06s", got)
	}
}

func TestWriterScaling(t *testing.T) {
	tgt := &Target{Name: "x", BytesPerSec: 100e9, MaxWriters: 100}
	few := tgt.WriteTime(1e9, 10)   // 10% of writers -> 10% of bandwidth
	many := tgt.WriteTime(1e9, 100) // saturated
	if few <= many {
		t.Fatalf("fewer writers must be slower below saturation: %v vs %v", few, many)
	}
	over := tgt.WriteTime(1e9, 1000) // beyond saturation: aggregate bandwidth
	if over != many {
		t.Fatalf("oversaturated writers should see aggregate bandwidth: %v vs %v", over, many)
	}
}

func TestReadTimeEqualsWriteTime(t *testing.T) {
	g := GPFS()
	if g.ReadTime(12345, 4) != g.WriteTime(12345, 4) {
		t.Fatal("symmetric model expected")
	}
}
