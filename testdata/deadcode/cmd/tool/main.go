// Command tool is the fixture's second program: it passes and writes other
// constants than cmd/app where a value must not be reported, the same one
// where it must, and creates a zero Gauge.
package main

import (
	"fmt"

	"deadcode/internal/lib"
)

func main() {
	var l lib.Lattice
	l.Set(1, 0, 3)
	var g lib.Gauge
	fmt.Println(lib.Sum(3, 4), lib.Box[int]{V: 7}.Get(), lib.Plan(lib.Config{Steps: 4, Width: 5}), l.At(1, 0))
	fmt.Println(lib.Pad(2), lib.Grid{Side: 4, Cells: 9}.Size(), g.Reading())
}
