package main

import (
	"encoding/json"
	"fmt"
	"os"

	"deadcode/internal/lib"
)

func main() {
	fmt.Println(lib.Runner{}.Run(), lib.Sim{}.Step(), lib.Drive(lib.Fluid{}), lib.Sum(1, 2), lib.Box[int]{V: 6}.Get())

	var l lib.Lattice
	l.Set(0, 1, 2)
	var c lib.Counter
	out, _ := json.Marshal(lib.Snapshot())
	fmt.Println(lib.Plan(lib.Config{Steps: 3, Width: 2, Shape: lib.Shape{}}), l.At(0, 1), c.Inc(), lib.Stages()["a"][0].Name, string(out), lib.Scan([]int{1, 2}))

	n := len(os.Args)
	r := lib.NewRing()
	r.Seal(n)
	fmt.Println(lib.Scale(n, 10), lib.Pad(1), lib.Grid{Side: 4, Cells: n}.Size(), lib.Gauge{Scale: 2}.Reading(), r.Sealed(n))
	fmt.Println(lib.Bucket{}.Put(7), lib.Fill(lib.Bucket{}, n), lib.Apply(lib.Double, n), lib.Double(3))
}
