package main

import (
	"encoding/json"
	"fmt"

	"deadcode/internal/lib"
)

func main() {
	fmt.Println(lib.Runner{}.Run(), lib.Sim{}.Step(), lib.Drive(lib.Fluid{}), lib.Sum(1, 2), lib.Box[int]{V: 6}.Get())

	var l lib.Lattice
	l.Set(0, 1, 2)
	var c lib.Counter
	out, _ := json.Marshal(lib.Snapshot())
	fmt.Println(lib.Plan(lib.Config{Steps: 3, Width: 2, Shape: lib.Shape{}}), l.At(0, 1), c.Inc(), lib.Stages()["a"][0].Name, string(out), lib.Scan([]int{1, 2}))
}
