package md

// Thermodynamic observables derived from the simulation state. These are
// the descriptive statistics the paper's §2.2 background mentions as the
// simplest class of in-situ analyses, and they double as physics checks on
// the force field.

// Pressure returns the instantaneous pressure from the virial theorem in
// reduced units: P = rho·T + W / (3V).
func (s *System) Pressure() float64 {
	v := s.Box[0] * s.Box[1] * s.Box[2]
	if v == 0 || s.N == 0 {
		return 0
	}
	rho := float64(s.N) / v
	return rho*s.Temperature() + s.virial/(3*v)
}
