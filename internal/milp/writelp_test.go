package milp

import (
	"bytes"
	"strings"
	"testing"

	"insitu/internal/lp"
)

func TestWriteLPKnapsack(t *testing.T) {
	p := NewProblem(&lp.Problem{})
	a := p.AddBinVar(60, "take[a]")
	b := p.AddBinVar(100, "take b") // space must be sanitized
	c := p.AddContVar(1, lp.Inf, "slack")
	p.LP.AddConstraint([]int{a, b, c}, []float64{10, 20, -1}, lp.LE, 50, "cap")
	p.LP.AddConstraint([]int{a, b}, []float64{1, 1}, lp.GE, 1, "")
	p.LP.AddConstraint([]int{c}, []float64{1}, lp.EQ, 0, "fix")

	var buf bytes.Buffer
	if err := WriteLP(&buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Maximize", "Subject To", "Bounds", "Generals", "End",
		"take(a)", "take_b", "cap:", ">= 1", "= 0", "<= 50",
		"+ 60 take(a)", "+ 100 take_b",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("LP output missing %q:\n%s", want, out)
		}
	}
	// Continuous slack must not be listed under Generals.
	gen := out[strings.Index(out, "Generals"):]
	if strings.Contains(gen, "slack") {
		t.Fatalf("continuous variable listed as general:\n%s", gen)
	}
	// Infinite upper bound renders as a one-sided bound.
	if !strings.Contains(out, "slack >= 0") {
		t.Fatalf("missing one-sided bound:\n%s", out)
	}
}

func TestWriteLPNegativeCoefficients(t *testing.T) {
	p := NewProblem(&lp.Problem{})
	x := p.AddBinVar(-3, "x")
	p.LP.AddConstraint([]int{x}, []float64{-2}, lp.LE, -1, "neg")
	var buf bytes.Buffer
	if err := WriteLP(&buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "- 3 x") || !strings.Contains(out, "- 2 x") {
		t.Fatalf("negative coefficients misrendered:\n%s", out)
	}
}

func TestWriteLPValidation(t *testing.T) {
	p := &Problem{LP: &lp.Problem{}, Integer: []bool{true}}
	var buf bytes.Buffer
	if err := WriteLP(&buf, p); err == nil {
		t.Fatal("expected integrality-length error")
	}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"x[A4 msd,n=2,k=1]": "x(A4_msd_n_2_k_1)",
		"":                  "_",
		"9lives":            "v9lives",
		".dot":              "v.dot",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Fatalf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWriteLPZeroObjective(t *testing.T) {
	p := NewProblem(&lp.Problem{})
	p.AddBinVar(0, "x")
	var buf bytes.Buffer
	if err := WriteLP(&buf, p); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0 x") {
		t.Fatalf("all-zero objective must still emit a term:\n%s", buf.String())
	}
}
