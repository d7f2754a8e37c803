// Package analysis defines the contract between simulation codes and their
// in-situ analysis routines, mirroring how LAMMPS "computes" and FLASH
// diagnostics are embedded in the simulation and invoked at a chosen
// frequency (paper §1, §3.1). A kernel's lifecycle matches the cost
// components of the scheduling model in package core:
//
//	Setup    — one-time initialization            -> ft (time), fm (memory)
//	PreStep  — per-simulation-step facilitation   -> it, im
//	Analyze  — per-analysis-step computation      -> ct, cm
//	Output   — per-output-step result writing     -> ot, om
//	Free     — release analysis buffers back to the fixed allocation
//
// Each phase returns the bytes it newly allocated, so the coupling layer can
// account memory exactly the way equations 5-8 of the paper do.
package analysis

import (
	"fmt"
	"io"
	"time"
)

// Kernel is one in-situ analysis routine embedded in a simulation.
type Kernel interface {
	// Name identifies the kernel (e.g. "A4 msd").
	Name() string
	// Setup performs one-time initialization and returns the bytes of fixed
	// memory it allocated (fm).
	Setup() (int64, error)
	// PreStep runs after every simulation step regardless of whether this is
	// an analysis step (e.g. copying data needed by temporal analyses) and
	// returns newly allocated bytes (im).
	PreStep(step int) (int64, error)
	// Analyze performs the analysis computation for the given simulation
	// step and returns newly allocated bytes (cm).
	Analyze(step int) (int64, error)
	// Output writes accumulated results to dst and returns the bytes written
	// (om). Implementations release their per-analysis buffers afterwards,
	// returning their footprint to the fixed allocation.
	Output(dst io.Writer) (int64, error)
	// Free releases all non-fixed buffers without writing output.
	Free()
}

// Costs summarizes measured per-phase resource usage of a kernel, in the
// notation of Table 1.
type Costs struct {
	Kernel string

	FT time.Duration // fixed setup time
	IT time.Duration // per-simulation-step time
	CT time.Duration // per-analysis-step compute time
	OT time.Duration // per-output-step write time

	FM int64 // fixed memory
	IM int64 // per-simulation-step memory
	CM int64 // per-analysis-step memory
	OM int64 // per-output-step memory
}

// String renders the costs in a compact table-row form.
func (c Costs) String() string {
	return fmt.Sprintf("%-22s ft=%-12v it=%-12v ct=%-12v ot=%-12v fm=%-10d im=%-8d cm=%-10d om=%d",
		c.Kernel, c.FT, c.IT, c.CT, c.OT, c.FM, c.IM, c.CM, c.OM)
}

// Measure profiles a kernel against a running simulation: it sets the kernel
// up, advances the simulation 4 steps via stepFn, analyzes every 2nd step,
// and outputs once at the end. Wall-clock times are averaged per phase. The
// returned kernel state is freed.
func Measure(k Kernel, stepFn func()) (Costs, error) {
	const steps, interval = 4, 2
	var c Costs
	c.Kernel = k.Name()

	t0 := time.Now()
	fm, err := k.Setup()
	if err != nil {
		return c, fmt.Errorf("analysis: %s setup: %w", k.Name(), err)
	}
	c.FT = time.Since(t0)
	c.FM = fm

	var itTotal, ctTotal time.Duration
	var imMax, cmMax int64
	for s := 1; s <= steps; s++ {
		stepFn()
		t := time.Now()
		im, err := k.PreStep(s)
		if err != nil {
			return c, fmt.Errorf("analysis: %s prestep: %w", k.Name(), err)
		}
		itTotal += time.Since(t)
		if im > imMax {
			imMax = im
		}
		if s%interval == 0 {
			t = time.Now()
			cm, err := k.Analyze(s)
			if err != nil {
				return c, fmt.Errorf("analysis: %s analyze: %w", k.Name(), err)
			}
			ctTotal += time.Since(t)
			if cm > cmMax {
				cmMax = cm
			}
		}
	}
	c.IT = itTotal / steps
	c.CT = ctTotal / (steps / interval)
	c.IM = imMax
	c.CM = cmMax

	t1 := time.Now()
	om, err := k.Output(io.Discard)
	if err != nil {
		return c, fmt.Errorf("analysis: %s output: %w", k.Name(), err)
	}
	c.OT = time.Since(t1)
	c.OM = om
	k.Free()
	return c, nil
}
