package iosim

import (
	"math"
	"testing"
	"time"
)

func TestWriteTimeLinearInBytes(t *testing.T) {
	g := GPFS()
	t1 := g.WriteTime(240e9) // 1 second of payload + latency
	want := time.Second + g.Latency
	if d := t1 - want; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("write time = %v, want ~%v", t1, want)
	}
	if g.WriteTime(0) != 0 {
		t.Fatal("zero bytes must cost zero")
	}
	if g.WriteTime(-1) != 0 {
		t.Fatal("negative bytes must cost zero")
	}
}

func TestNVRAMFasterThanGPFS(t *testing.T) {
	bytes := int64(91 << 30)
	if NVRAM().WriteTime(bytes) >= GPFS().WriteTime(bytes) {
		t.Fatal("NVRAM must beat GPFS")
	}
}

func TestSustainedGPFSMatchesPaper(t *testing.T) {
	// The paper's 1B-atom rhodopsin run: 91 GB per output step, 10 steps in
	// 200.6 s -> ~20.06 s per write.
	s := SustainedGPFS()
	got := s.WriteTime(91e9).Seconds()
	if math.Abs(got-20.06) > 0.2 {
		t.Fatalf("91 GB write = %.2fs, want ~20.06s", got)
	}
}

func TestReadTimeEqualsWriteTime(t *testing.T) {
	g := GPFS()
	if g.ReadTime(12345) != g.WriteTime(12345) {
		t.Fatal("symmetric model expected")
	}
}
