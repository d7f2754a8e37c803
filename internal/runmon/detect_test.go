package runmon

import (
	"math"
	"testing"
)

func TestEWMASeedsAndSmooths(t *testing.T) {
	var e EWMA
	if got := e.Observe(1.0); got != 1.0 {
		t.Fatalf("first observation should seed the mean, got %g", got)
	}
	x := 0.0
	want := 1 + ewmaAlpha*(x-1)
	if got := e.Observe(x); got != want || math.Abs(want-0.7) > 1e-12 {
		t.Fatalf("after 1, 0 with alpha %g want %g (0.7), got %g", ewmaAlpha, want, got)
	}
	if got := e.Observe(want); got != want {
		t.Fatalf("mean should stay at %g, got %g", want, got)
	}
	if e.N() != 3 {
		t.Fatalf("N = %d", e.N())
	}
}

func TestCUSUMDetectsSustainedShift(t *testing.T) {
	var c CUSUM
	// Noise within the slack never accumulates.
	for i := 0; i < 100; i++ {
		x := 0.2
		if i%2 == 0 {
			x = -0.2
		}
		if c.Observe(x) {
			t.Fatalf("alarm on noise at observation %d", i)
		}
	}
	if pos, neg := c.Stat(); pos != 0 || neg != 0 {
		t.Fatalf("statistics accumulated on noise: %g, %g", pos, neg)
	}
	// A sustained +0.5 shift (1.5x inflation) accumulates 0.25 per step:
	// alarm strictly after the 4th shifted observation crosses 1.0.
	steps := 0
	for !c.Observe(0.5) {
		steps++
		if steps > 10 {
			t.Fatal("no alarm after 10 shifted observations")
		}
	}
	if steps+1 > 5 {
		t.Fatalf("alarm took %d observations, want <= 5", steps+1)
	}
	if c.Direction() != "slow" {
		t.Fatalf("direction = %q", c.Direction())
	}
	c.Reset()
	if c.Alarm() {
		t.Fatal("alarm survives reset")
	}
}

func TestCUSUMDetectsSpeedup(t *testing.T) {
	var c CUSUM
	fired := false
	for i := 0; i < 10 && !fired; i++ {
		fired = c.Observe(-0.75) // run twice as fast as predicted
	}
	if !fired {
		t.Fatal("no alarm on sustained speedup")
	}
	if c.Direction() != "fast" {
		t.Fatalf("direction = %q", c.Direction())
	}
}

func TestCUSUMImmediateJump(t *testing.T) {
	// A single catastrophic observation (3x degradation: x = 2) crosses
	// h = 1.0 immediately: 2 - 0.25 > 1.
	var c CUSUM
	if !c.Observe(2.0) {
		t.Fatal("3x degradation should alarm on first observation")
	}
}

func TestRelErrFinite(t *testing.T) {
	// Guard the residual math against the degenerate predictions the
	// monitor may compute from self-calibration.
	for _, pred := range []float64{1e-9, 1, 1e9} {
		x := (2*pred - pred) / pred
		if math.IsNaN(x) || math.IsInf(x, 0) || x != 1 {
			t.Fatalf("rel err at pred=%g: %g", pred, x)
		}
	}
}
