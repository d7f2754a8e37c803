// Post-processing vs in-situ example (the Table-4 scenario): run the MD
// mini-app, dump a trajectory, and compare the cost of reading it back for
// post-processing against analyzing in-situ during the run.
//
// Run with:
//
//	go run ./examples/postproc
package main

import (
	"fmt"
	"log"

	"insitu/internal/experiments"
	"insitu/internal/iosim"
)

func main() {
	rows, err := experiments.Table4(experiments.Table4Config{
		Atoms:       []int{3000, 12544},
		Steps:       60,
		OutputEvery: 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.FormatTable4(rows))

	fmt.Println("\nEvery row pays the read cost before post-processing can even start;")
	fmt.Println("the in-situ path analyzes the data while it is still in simulation memory.")

	// What the same read would cost at the paper's scale, through the
	// storage model: a 1B-atom trajectory frame on GPFS vs NVRAM.
	frame := int64(1e9) * 24 // 1B atoms x 3 coords x 8 bytes
	gpfs := iosim.SustainedGPFS()
	nvram := iosim.NVRAM()
	fmt.Printf("\nmodeled read of one 1B-atom frame: GPFS %.1fs, NVRAM %.3fs\n",
		gpfs.ReadTime(frame).Seconds(), nvram.ReadTime(frame).Seconds())
}
