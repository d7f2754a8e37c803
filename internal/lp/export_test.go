package lp

// RefactorOracle is refactorOracle for package lp_test, whose tests draw
// problems from solvercheck's generators (solvercheck imports lp, so package
// lp's own tests cannot).
var RefactorOracle = refactorOracle

// MovableOracle is movableOracle for package lp_test, and MovableCounts what
// it tallies.
var MovableOracle = movableOracle

type MovableCounts = movableCounts
