package amr

import "math"

// The analytic Sedov-Taylor point-blast reference the FLASH error norms
// compare against, for the bundled setup: blast energy E = 1 into ambient
// density rho = 1 at gamma. It is the self-similar shock radius
//
//	R(t) = xi0 * (E t^2 / rho)^(1/5)
//
// and the strong-shock Rankine-Hugoniot jump conditions immediately behind
// the front. sedovXi0 is the similarity constant for gamma = 1.4 (Sedov
// 1959).
const sedovXi0 float64 = 1.1527

// SedovShockRadius returns R(t).
func SedovShockRadius(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return sedovXi0 * math.Pow(t*t, 0.2)
}

// SedovShockSpeed returns dR/dt = (2/5) R(t)/t.
func SedovShockSpeed(t float64) float64 {
	if t <= 0 {
		return math.Inf(1)
	}
	return 0.4 * SedovShockRadius(t) / t
}

// SedovPostShockDensity returns the strong-shock density immediately behind
// the front: rho (gamma+1)/(gamma-1) — 6x ambient for gamma = 1.4.
func SedovPostShockDensity() float64 {
	return (gamma + 1) / (gamma - 1)
}

// SedovPostShockPressure returns the strong-shock pressure behind the front
// at time t: 2 rho us^2 / (gamma+1).
func SedovPostShockPressure(t float64) float64 {
	us := SedovShockSpeed(t)
	return 2 * us * us / (gamma + 1)
}
