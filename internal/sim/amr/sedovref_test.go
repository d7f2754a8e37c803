package amr

import (
	"math"
	"testing"
)

func TestSedovReferenceAgainstSimulation(t *testing.T) {
	// The simulated shock radius should track xi0 (E t^2/rho)^(1/5) within
	// the smearing of a first-order scheme on a coarse grid.
	g := sedov(t, 4, 10)
	for g.Time < 0.04 {
		g.StepCFL()
	}
	want := SedovShockRadius(g.Time)
	got := g.ShockRadius()
	if math.Abs(got-want) > 0.35*want {
		t.Fatalf("shock radius %g vs Sedov-Taylor %g at t=%g", got, want, g.Time)
	}
	// Post-shock density cannot exceed the strong-shock limit (6x for
	// gamma=1.4); numerical diffusion keeps it below.
	peak := 0.0
	for _, b := range g.Blocks {
		for i := 1; i <= b.nb; i++ {
			for j := 1; j <= b.nb; j++ {
				for k := 1; k <= b.nb; k++ {
					if d := b.U[Dens][b.idx(i, j, k)]; d > peak {
						peak = d
					}
				}
			}
		}
	}
	limit := SedovPostShockDensity()
	if peak > limit*1.05 {
		t.Fatalf("peak density %g exceeds the strong-shock limit %g", peak, limit)
	}
	if peak < AmbientDensity*1.2 {
		t.Fatalf("peak density %g shows no compression", peak)
	}
}

func TestSedovReferenceProperties(t *testing.T) {
	if SedovShockRadius(0) != 0 {
		t.Fatal("R(0) must be 0")
	}
	// R ~ t^(2/5) exactly.
	r1, r2 := SedovShockRadius(0.01), SedovShockRadius(0.02)
	if math.Abs(r2/r1-math.Pow(2, 0.4)) > 1e-12 {
		t.Fatalf("similarity scaling broken: %g", r2/r1)
	}
	// Shock decelerates; post-shock pressure decays.
	if SedovShockSpeed(0.02) >= SedovShockSpeed(0.01) {
		t.Fatal("shock must decelerate")
	}
	if SedovPostShockPressure(0.02) >= SedovPostShockPressure(0.01) {
		t.Fatal("post-shock pressure must decay")
	}
	if math.Abs(SedovPostShockDensity()-6) > 1e-12 {
		t.Fatalf("gamma=1.4 compression = %g, want 6", SedovPostShockDensity())
	}
}
