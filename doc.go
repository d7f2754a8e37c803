// Package insitu reproduces "Optimal Scheduling of In-situ Analysis for
// Large-scale Scientific Simulations" (Malakar et al., SC '15): scheduling
// in-situ analyses as a mixed-integer linear program that maximizes the
// number and importance of analyses performed during a simulation, subject
// to time, memory, interval, and I/O-bandwidth constraints.
//
// The repository layout follows the paper's system stack:
//
//   - internal/core — the scheduling model and solvers (the contribution)
//   - internal/lp, internal/milp — from-scratch simplex and branch & bound
//     (the GAMS+CPLEX substitute)
//   - internal/sim/md, internal/sim/amr — LAMMPS- and FLASH-style mini-apps
//   - internal/analysis/... — the ten analysis kernels of Tables 2-3 and §5.2
//   - internal/comm, internal/machine, internal/perfmodel, internal/iosim,
//     internal/trajectory — the MPI/BG-Q/HPM/GPFS substrate models
//   - internal/coupling — executes recommended schedules against live runs
//   - internal/experiments — regenerates every table and figure of §5
//
// See README.md for a walkthrough, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-vs-measured results.
package insitu
