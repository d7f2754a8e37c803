package main

import (
	"fmt"

	"deadcode/internal/lib"
)

func main() {
	fmt.Println(lib.Runner{}.Run(), lib.Sim{}.Step(), lib.Drive(lib.Fluid{}), lib.Sum(1, 2), lib.Box[int]{}.Get())
}
