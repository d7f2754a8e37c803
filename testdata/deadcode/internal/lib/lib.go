// Package lib is the reachability walk's fixture: cmd/app and cmd/tool reach
// all of it but Sim.Run, and Spare only as an allowlisted root. Of the fields
// (see fields.go), Config's Unset, Log, Note and Retries and Counter's total
// are dead; the rest are live only through the shapes the field rules must
// see. Of the values (see values.go), Scale's factor and Grid's Side are one
// constant; the rest only look like one.
package lib

type Runner struct{}

func (Runner) Run() int { return 1 }

// Sim is live, but its Run is dead although Runner.Run is live.
type Sim struct{}

func (Sim) Step() int { return 2 }

func (Sim) Run() int { return 3 }

// Fluid.Advance is called only through Stepper.
type Stepper interface{ Advance() int }

type Fluid struct{}

func (Fluid) Advance() int { return 4 }

func Drive(s Stepper) int { return s.Advance() }

// Sum is called only as an instance, Box.Get only on an instantiated type.
func Sum[T int | float64](a, b T) T { return a + b }

type Box[T any] struct{ V T }

func (b Box[T]) Get() T { return b.V }

func Spare() int { return helper() }

func helper() int { return 5 }
