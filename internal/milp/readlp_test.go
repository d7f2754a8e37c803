package milp

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"insitu/internal/lp"
)

// knapsack builds a small MILP with binaries, a continuous variable, and an
// equality row, exercising every section WriteLP emits.
func roundTripProblem() *Problem {
	p := NewProblem(&lp.Problem{})
	x := p.AddBinVar(5, "x[a,n=1]")
	y := p.AddBinVar(4, "y")
	z := addIntVar(p, 3, 0, 3, "z")
	c := p.AddContVar(0.5, 10, "c")
	p.LP.AddConstraint([]int{x, y, z}, []float64{2, 3, 1}, lp.LE, 5, "cap")
	p.LP.AddConstraint([]int{z, c}, []float64{1, -1}, lp.GE, -2, "link")
	p.LP.AddConstraint([]int{x, c}, []float64{1, 1}, lp.EQ, 3, "tie")
	return p
}

func TestReadLPRoundTripObjective(t *testing.T) {
	p := roundTripProblem()
	want, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteLP(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := ReadLP(&buf)
	if err != nil {
		t.Fatalf("ReadLP: %v", err)
	}
	if q.LP.NumVars() != p.LP.NumVars() {
		t.Fatalf("reparsed %d variables, want %d", q.LP.NumVars(), p.LP.NumVars())
	}
	if len(q.LP.Constraints) != len(p.LP.Constraints) {
		t.Fatalf("reparsed %d constraints, want %d", len(q.LP.Constraints), len(p.LP.Constraints))
	}
	got, err := Solve(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != want.Status {
		t.Fatalf("reparsed status %v, want %v", got.Status, want.Status)
	}
	if math.Abs(got.Objective-want.Objective) > 1e-9 {
		t.Fatalf("reparsed objective %g, want %g", got.Objective, want.Objective)
	}
}

func TestReadLPSecondRoundTripIsByteIdentical(t *testing.T) {
	p := roundTripProblem()
	var first bytes.Buffer
	if err := WriteLP(&first, p); err != nil {
		t.Fatal(err)
	}
	q, err := ReadLP(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := WriteLP(&second, q); err != nil {
		t.Fatal(err)
	}
	// After one parse the variable order is canonical (first appearance), so
	// write -> read -> write must be a fixed point.
	r, err := ReadLP(bytes.NewReader(second.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var third bytes.Buffer
	if err := WriteLP(&third, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second.Bytes(), third.Bytes()) {
		t.Fatalf("second and third serializations differ:\n%s\n---\n%s", second.String(), third.String())
	}
}

func TestReadLPRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"no end", "Maximize\n obj: + 1 x\nSubject To\nBounds\n 0 <= x <= 1\n"},
		{"minimize", "Minimize\n obj: + 1 x\nEnd\n"},
		{"no operator", "Maximize\n obj: + 1 x\nSubject To\n c0: + 1 x 5\nEnd\n"},
		{"bad rhs", "Maximize\n obj: + 1 x\nSubject To\n c0: + 1 x <= five\nEnd\n"},
		{"bad bound", "Maximize\n obj: + 1 x\nBounds\n zero <= x <= 1\nEnd\n"},
		{"content before section", "+ 1 x\nEnd\n"},
		{"consecutive numbers", "Maximize\n obj: + 1 2 x\nEnd\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadLP(strings.NewReader(tc.in)); err == nil {
				t.Fatalf("ReadLP accepted malformed input %q", tc.in)
			}
		})
	}
}

func TestReadLPBareVariableTerms(t *testing.T) {
	// Coefficient-free terms ("+ x") are accepted for hand-written files.
	in := "Maximize\n obj: + x + 2 y\nSubject To\n c0: + x + y <= 1.5\nBounds\n 0 <= x <= 1\n 0 <= y <= 1\nGenerals\n x\n y\nEnd\n"
	p, err := ReadLP(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-2) > 1e-9 {
		t.Fatalf("got %v objective %g, want optimal 2 (y only)", sol.Status, sol.Objective)
	}
}

// FuzzReadLP asserts the parser never panics and that anything it accepts is
// structurally valid enough to validate and re-serialize.
func FuzzReadLP(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteLP(&seed, roundTripProblem()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("Maximize\n obj: + 1 x\nSubject To\n c0: + 1 x <= 5\nBounds\n 0 <= x <= 10\nGenerals\n x\nEnd\n")
	f.Add("End\n")
	f.Fuzz(func(t *testing.T, in string) {
		p, err := ReadLP(strings.NewReader(in))
		if err != nil {
			return
		}
		if verr := p.LP.Validate(); verr != nil {
			// Accepted files may still describe crossed bounds etc.; that is
			// Validate's job to report, not a parser crash.
			return
		}
		var buf bytes.Buffer
		if err := WriteLP(&buf, p); err != nil {
			t.Fatalf("WriteLP on reparsed problem: %v", err)
		}
	})
}
