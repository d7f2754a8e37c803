package experiments

import (
	"fmt"
	"strings"
)

// Verification encodes the paper's published values as machine-checkable
// expectations, so `cmd/experiments -verify` produces an attestation table
// instead of eyeballed output.

// Check is one verified claim.
type Check struct {
	Experiment string
	Claim      string
	Pass       bool
	Detail     string
}

// VerifyAll runs the scheduling experiments and checks each against the
// paper's published rows. Measured (wall-clock) experiments are excluded —
// their assertions live in the test suite with noise-tolerant bounds.
func VerifyAll() ([]Check, error) {
	var checks []Check
	add := func(exp, claim string, pass bool, detail string) {
		checks = append(checks, Check{Experiment: exp, Claim: claim, Pass: pass, Detail: detail})
	}

	// Table 5.
	t5, err := Table5()
	if err != nil {
		return nil, err
	}
	wantA4 := []int{4, 2, 1, 0}
	okCounts, okTimes := true, true
	for i, r := range t5 {
		if r.Counts[0] != 10 || r.Counts[1] != 10 || r.Counts[2] != 10 || r.Counts[3] != wantA4[i] {
			okCounts = false
		}
		want := []float64{103.47, 52.79, 27.45, 2.11}[i]
		if d := r.ExecutedTime - want; d > 0.25 || d < -0.25 {
			okTimes = false
		}
	}
	add("Table 5", "A1-A3 x10, A4 = 4/2/1/0 at 20/10/5/1%", okCounts,
		fmt.Sprintf("A4 counts %d %d %d %d", t5[0].Counts[3], t5[1].Counts[3], t5[2].Counts[3], t5[3].Counts[3]))
	add("Table 5", "executed times 103.47/52.79/27.45/2.11 s", okTimes,
		fmt.Sprintf("%.2f %.2f %.2f %.2f", t5[0].ExecutedTime, t5[1].ExecutedTime, t5[2].ExecutedTime, t5[3].ExecutedTime))

	// Table 6.
	t6, err := Table6()
	if err != nil {
		return nil, err
	}
	wantR23 := []int{11, 5, 3, 1, 0}
	ok6 := true
	for i, r := range t6 {
		if r.Counts[0] != 10 || r.Counts[1]+r.Counts[2] != wantR23[i] {
			ok6 = false
		}
	}
	add("Table 6", "R1 x10 everywhere; R2+R3 = 11/5/3/1/0", ok6,
		fmt.Sprintf("R2+R3 %d %d %d %d %d",
			t6[0].Counts[1]+t6[0].Counts[2], t6[1].Counts[1]+t6[1].Counts[2],
			t6[2].Counts[1]+t6[2].Counts[2], t6[3].Counts[1]+t6[3].Counts[2],
			t6[4].Counts[1]+t6[4].Counts[2]))

	// Table 7.
	t7, err := Table7()
	if err != nil {
		return nil, err
	}
	ok7 := len(t7) == 3 && t7[0].NumAnalyses == 12 && t7[1].NumAnalyses == 18 && t7[2].NumAnalyses == 21
	add("Table 7", "12/18/21 analyses as output time halves", ok7,
		fmt.Sprintf("%d %d %d", t7[0].NumAnalyses, t7[1].NumAnalyses, t7[2].NumAnalyses))

	// Table 8.
	t8, err := Table8()
	if err != nil {
		return nil, err
	}
	ok8a := t8[0].Counts == [3]int{1, 10, 10}
	ok8b := t8[1].Counts == [3]int{5, 0, 10}
	add("Table 8", "I1 = (1,10,10)", ok8a, fmt.Sprintf("%v", t8[0].Counts))
	add("Table 8", "I2 = (5,0,10) under priority semantics", ok8b, fmt.Sprintf("%v", t8[1].Counts))

	// Figure 5.
	f5, err := Figure5()
	if err != nil {
		return nil, err
	}
	okF5 := f5[0].CountA4 == 10 && f5[4].CountA4 == 1
	decaying := true
	for i := 1; i < len(f5); i++ {
		if f5[i].CountA4 > f5[i-1].CountA4 {
			decaying = false
		}
	}
	add("Figure 5", "A4 decays 10 -> 1 over 2048 -> 32768 ranks", okF5 && decaying,
		fmt.Sprintf("A4 %d %d %d %d %d", f5[0].CountA4, f5[1].CountA4, f5[2].CountA4, f5[3].CountA4, f5[4].CountA4))

	// Solver runtime envelope.
	minT, maxT, err := SolverRuntime()
	if err != nil {
		return nil, err
	}
	add("Solver", "every instance under the paper's 1.36 s ceiling", maxT.Seconds() <= 1.36,
		fmt.Sprintf("%v .. %v", minT, maxT))

	return checks, nil
}

// FormatChecks renders the attestation table.
func FormatChecks(checks []Check) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Reproduction attestation (paper-published values vs this build):\n")
	pass := 0
	for _, c := range checks {
		mark := "FAIL"
		if c.Pass {
			mark = "ok"
			pass++
		}
		fmt.Fprintf(&b, "  [%-4s] %-9s %-48s %s\n", mark, c.Experiment, c.Claim, c.Detail)
	}
	fmt.Fprintf(&b, "%d/%d checks passed\n", pass, len(checks))
	return b.String()
}
