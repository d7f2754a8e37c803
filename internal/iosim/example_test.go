package iosim_test

import (
	"fmt"
	"time"

	"insitu/internal/iosim"
)

// The ot = om/bw substitution of §3.2: one rhodopsin output step is 91 GB;
// on the sustained GPFS bandwidth it costs ~20 s, the per-step share of the
// paper's 200.6 s total.
func ExampleTarget_WriteTime() {
	gpfs := iosim.SustainedGPFS()
	fmt.Printf("%.1f s\n", gpfs.WriteTime(91e9).Seconds())
	// Output:
	// 20.1 s
}

// Redirecting the same outputs to an NVRAM burst buffer makes them almost
// free as long as the drain keeps up — Table 7's what-if.
func ExampleBurstBuffer_SustainedOutputTime() {
	bb := iosim.NewBurstBuffer()
	total := bb.SustainedOutputTime(91<<30, 10, 500*time.Second)
	fmt.Printf("under a second per output: %v\n", total/10 < time.Second)
	// Output:
	// under a second per output: true
}
