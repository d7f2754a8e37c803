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

// TestLPRoundTripKeepsNoColumns: a model without columns writes its empty
// objective with no term, and reads back without columns.
func TestLPRoundTripKeepsNoColumns(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteLP(&buf, NewProblem(&lp.Problem{})); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if strings.Contains(text, "x0") {
		t.Fatalf("column-free model names a column:\n%s", text)
	}
	q, err := ReadLP(&buf)
	if err != nil {
		t.Fatalf("ReadLP: %v\n%s", err, text)
	}
	if n, m := q.LP.NumVars(), len(q.LP.Constraints); n != 0 || m != 0 {
		t.Fatalf("reread %d columns and %d rows, want none", n, m)
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

// setFile is an LP file up to its SOS header: two one-of rows, over x and y
// and over z, and a knapsack row.
const setFile = "Maximize\n obj: + 1 x + 2 y + 3 z\nSubject To\n" +
	" c0: + 1 x + 1 y <= 1\n c1: + 1 z <= 1\n c2: + 2 x + 3 y + 4 z <= 5\nBounds\n" +
	" 0 <= x <= 1\n 0 <= y <= 1\n 0 <= z <= 1\nSOS\n"

// TestReadLPReadsSets: each set declares the next row a class, and the
// declaration survives a second write and read.
func TestReadLPReadsSets(t *testing.T) {
	p, err := ReadLP(strings.NewReader(setFile + " s0: S1:: x:1 y:2\n s1: S1:: z:1\nEnd\n"))
	if err != nil {
		t.Fatal(err)
	}
	if p.LP.Classes != 2 {
		t.Fatalf("read %d classes, want 2", p.LP.Classes)
	}
	var buf bytes.Buffer
	if err := WriteLP(&buf, p); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SOS\n s0: S1:: x:1 y:2\n s1: S1:: z:1\nEnd\n") {
		t.Fatalf("written sets differ:\n%s", buf.String())
	}
	q, err := ReadLP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.LP.Classes != 2 {
		t.Fatalf("reread %d classes, want 2", q.LP.Classes)
	}
}

// TestReadLPKeepsEmptyClass: a declared class row over no column, written as
// the zero term "+ 0 x0", reads back as the empty class it was.
func TestReadLPKeepsEmptyClass(t *testing.T) {
	p := NewProblem(&lp.Problem{Classes: 2})
	p.AddBinVar(1, "x")
	p.LP.AddConstraint(nil, nil, lp.LE, 1, "empty")
	p.LP.AddConstraint([]int{0}, []float64{1}, lp.LE, 1, "one")
	p.LP.AddConstraint([]int{0}, []float64{2}, lp.LE, 3, "cap")
	var buf bytes.Buffer
	if err := WriteLP(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := ReadLP(&buf)
	if err != nil {
		t.Fatalf("ReadLP: %v\n%s", err, buf.String())
	}
	if q.LP.Classes != 2 || len(q.LP.Constraints[0].Idx) != 0 {
		t.Fatalf("read %d classes, the first over %v", q.LP.Classes, q.LP.Constraints[0].Idx)
	}
}

func TestReadLPRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		in   string
		why  string // in the error, where the input could fail for another reason
	}{
		{"empty", "", ""},
		{"no end", "Maximize\n obj: + 1 x\nSubject To\nBounds\n 0 <= x <= 1\n", ""},
		{"minimize", "Minimize\n obj: + 1 x\nEnd\n", ""},
		{"no operator", "Maximize\n obj: + 1 x\nSubject To\n c0: + 1 x 5\nEnd\n", ""},
		{"bad rhs", "Maximize\n obj: + 1 x\nSubject To\n c0: + 1 x <= five\nEnd\n", ""},
		{"bad bound", "Maximize\n obj: + 1 x\nBounds\n zero <= x <= 1\nEnd\n", ""},
		{"content before section", "+ 1 x\nEnd\n", ""},
		{"consecutive numbers", "Maximize\n obj: + 1 2 x\nEnd\n", ""},
		{"bare variable term", "Maximize\n obj: + x\nEnd\n", ""},
		{"set over other columns", setFile + " s0: S1:: x:1 y:2\n s1: S1:: x:1\nEnd\n", "columns of row 1"},
		{"set past the last row", setFile + " s0: S1:: x:1 y:2\n s1: S1:: z:1\n s2: S1:: x:1 y:2 z:3\n s3: S1:: x:1\nEnd\n", "past the last row"},
		{"SOS before Subject To", "Maximize\n obj: + 1 x\nSOS\n s0: S1:: x:1\nSubject To\n c0: + 1 x <= 1\nEnd\n", ""},
		{"non-S1 set", setFile + " s0: S2:: x:1 y:2\nEnd\n", "not an S1 set"},
		{"no terms with columns", "Maximize\n obj:\nSubject To\n c0: + 1 x <= 1\nEnd\n", "no terms"},
		{"set over a greater-equal row", strings.Replace(setFile, "y <= 1", "y >= 1", 1) + " s0: S1:: x:1 y:2\nEnd\n",
			"constraint 0 breaks the declared shape: class row is >= 1"},
		{"set over a coefficient of 2", strings.Replace(setFile, "+ 1 x + 1 y", "+ 2 x + 1 y", 1) + " s0: S1:: x:1 y:2\nEnd\n",
			"constraint 0 breaks the declared shape: class row coefficient 2 on variable 0"},
		{"overlapping sets", strings.Replace(setFile, "c1: + 1 z", "c1: + 1 y + 1 z", 1) + " s0: S1:: x:1 y:2\n s1: S1:: y:1 z:2\nEnd\n",
			"constraint 1 breaks the declared shape: variable 1 is in an earlier class row"},
		{"crossed bounds", "Maximize\n obj: + 1 x\nSubject To\n c0: + 1 x <= 1\nBounds\n 2 <= x <= 1\nEnd\n", "lower bound 2 above upper bound 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadLP(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("ReadLP accepted malformed input %q", tc.in)
			}
			if !strings.Contains(err.Error(), tc.why) {
				t.Fatalf("ReadLP rejected %q with %v, want %q", tc.in, err, tc.why)
			}
		})
	}
}

// FuzzReadLP asserts the parser never panics and that anything it accepts
// validates and re-serializes.
func FuzzReadLP(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteLP(&seed, roundTripProblem()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("Maximize\n obj: + 1 x\nSubject To\n c0: + 1 x <= 5\nBounds\n 0 <= x <= 10\nGenerals\n x\nEnd\n")
	f.Add("End\n")
	f.Add(setFile + " s0: S1:: x:1 y:2\nEnd\n")
	f.Fuzz(func(t *testing.T, in string) {
		p, err := ReadLP(strings.NewReader(in))
		if err != nil {
			return
		}
		if verr := p.LP.Validate(); verr != nil {
			t.Fatalf("ReadLP accepted a model that does not validate: %v", verr)
		}
		var buf bytes.Buffer
		if err := WriteLP(&buf, p); err != nil {
			t.Fatalf("WriteLP on reparsed problem: %v", err)
		}
	})
}
