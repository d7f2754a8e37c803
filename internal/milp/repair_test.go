package milp

import (
	"testing"

	"insitu/internal/lp"
)

// choiceMode is one mode of a hand-built class: its objective, what it uses
// of each knapsack row, and its bounds.
type choiceMode struct {
	obj    float64
	use    []float64
	lo, up float64
}

// choiceModel builds a pure-binary multiple-choice knapsack that declares
// its shape: one "<= 1" row per class over its modes, then one "<=" row per
// capacity. Columns are numbered class by class, mode by mode.
func choiceModel(classes [][]choiceMode, caps []float64) *Problem {
	p := NewProblem(&lp.Problem{})
	var rows [][]int
	for _, modes := range classes {
		var idx []int
		for _, m := range modes {
			j := p.AddBinVar(m.obj, "")
			p.LP.Lower[j], p.LP.Upper[j] = m.lo, m.up
			idx = append(idx, j)
		}
		rows = append(rows, idx)
	}
	for _, idx := range rows {
		ones := make([]float64, len(idx))
		for t := range ones {
			ones[t] = 1
		}
		p.LP.AddConstraint(idx, ones, lp.LE, 1, "")
	}
	p.LP.Classes = len(rows)
	for r, c := range caps {
		var idx []int
		var coef []float64
		j := 0
		for _, modes := range classes {
			for _, m := range modes {
				idx, coef = append(idx, j), append(coef, m.use[r])
				j++
			}
		}
		p.LP.AddConstraint(idx, coef, lp.LE, c, "")
	}
	return p
}

// bin is a 0-1 mode with the given objective and row use.
func bin(obj float64, use ...float64) choiceMode {
	return choiceMode{obj: obj, use: use, up: 1}
}

// roundAt rounds x on p as a pure-integer search does, and fails the test
// unless it finds a point.
func roundAt(t *testing.T, p *Problem, x []float64) []float64 {
	t.Helper()
	var h heurCtx
	h.init(p, nil)
	var st Stats
	got, ok := h.round(p, x, mostFractional(p, x, lp.IntTol) < 0, &st)
	if !ok {
		t.Fatalf("no point rounded from %v", x)
	}
	return append([]float64(nil), got...)
}

func wantPoint(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("%s: rounded to %v, want %v", name, got, want)
		}
	}
}

// TestRepairRefillsEmptiedClass: floor-all empties the class the relaxation
// splits between two modes, and the repair gives it the best mode the rows'
// residual holds; a class floor-all kept at a poorer mode is swapped up.
func TestRepairRefillsEmptiedClass(t *testing.T) {
	p := choiceModel([][]choiceMode{
		{bin(5, 6, 1), bin(3, 3, 1), bin(1, 1, 1)},
		{bin(4, 4, 1)},
	}, []float64{10, 10})
	// Class 0 split 1/2-1/2 between its best two modes: the floor point
	// holds class 1 alone and leaves 6 of the time row, which the best mode
	// fills exactly.
	wantPoint(t, "refill", roundAt(t, p, []float64{0.5, 0.5, 0, 1}), []float64{1, 0, 0, 1})

	// Class 0 empty and class 1 at its poorest mode: the pass fills class 0,
	// and class 1 moves up to the best mode the rest of the row then holds.
	p = choiceModel([][]choiceMode{
		{bin(4, 4, 1)},
		{bin(5, 7, 1), bin(3, 3, 1), bin(1, 1, 1)},
	}, []float64{10, 10})
	wantPoint(t, "swap", roundAt(t, p, []float64{0.9, 0, 0, 1}), []float64{1, 0, 1, 0})
}

// TestRepairFitsEveryRow: a mode that fits all but one knapsack row is never
// taken, whichever row it is; the class gets the best mode that fits them all.
// A fit test that skipped any row would take the best mode here.
func TestRepairFitsEveryRow(t *testing.T) {
	for r := 0; r < 3; r++ {
		over := []float64{1, 1, 1}
		over[r] = 11 // the best mode overflows row r alone
		p := choiceModel([][]choiceMode{
			{bin(9, over...), bin(6, 2, 2, 2), bin(2, 1, 1, 1)},
		}, []float64{10, 10, 10})
		x := []float64{0.5, 0.5, 0}
		var h heurCtx
		h.init(p, nil)
		fl := []float64{0, 0, 0}
		h.rep.run(p, fl)
		wantPoint(t, "repair", fl, []float64{0, 1, 0})
		wantPoint(t, "round", roundAt(t, p, x), []float64{0, 1, 0})
	}
}

// TestRepairLeavesForcedClassAlone: a class with a column whose lower bound
// is 1 keeps the floor point's mode though a better one fits, and a column
// whose box excludes 1 is never taken.
func TestRepairLeavesForcedClassAlone(t *testing.T) {
	forced := bin(1, 1, 1)
	forced.lo = 1
	barred := bin(8, 1, 1)
	barred.up = 0
	p := choiceModel([][]choiceMode{
		{forced, bin(10, 1, 1)},
		{barred, bin(5, 2, 2), bin(1, 1, 1)},
	}, []float64{10, 10})
	wantPoint(t, "forced", roundAt(t, p, []float64{1, 0, 0, 0.5, 0.5}), []float64{1, 0, 0, 1, 0})
}
