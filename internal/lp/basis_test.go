package lp

import (
	"fmt"
	"slices"
	"testing"
)

// boxKnapsack has nv variables in [0, 1+j%3] and, when rows > 0, a
// knapsack row over all of them with room for about half (rows > 1 adds a
// one-mode row over every third variable), then one equality row on x0 and
// the last variable. Its optimum rests most variables at their upper bound,
// so the at-upper flags fill every word of a snapshot; the structural plus
// slack width is nv + rows.
func boxKnapsack(nv, rows int) *Problem {
	p := &Problem{}
	var all, third []int
	var weight, ones []float64
	room := 0.0
	for j := 0; j < nv; j++ {
		up := float64(1 + j%3)
		p.AddVar(float64(3+j%5), 0, up, "")
		all, weight = append(all, j), append(weight, float64(1+j%4))
		room += up * float64(1+j%4) / 2
		if j%3 == 0 {
			third, ones = append(third, j), append(ones, 1)
		}
	}
	if rows > 0 {
		p.AddConstraint(all, weight, LE, room, "")
	}
	if rows > 1 {
		p.AddConstraint(third, ones, LE, 1, "")
	}
	if nv == 1 {
		p.AddConstraint([]int{0}, []float64{1}, EQ, 1, "")
	} else {
		p.AddConstraint([]int{0, nv - 1}, []float64{1, 1}, EQ, 1, "")
	}
	return p
}

// TestBasisRoundTripAcrossWords: for structural+slack widths on both sides of
// the 64-column word boundary, a snapshot holds (n+63)/64 words of flags and
// costs the same allocations at every width; installed on a second solver it
// seats the basis and flags its source reinstalls and gives a byte-identical next solve;
// Columns reads the flags back as the solver's own bools; and a solver of a
// problem one column wider refuses it and solves cold.
func TestBasisRoundTripAcrossWords(t *testing.T) {
	var allocs []float64
	for _, n := range []int{1, 63, 64, 65, 130} {
		rows := min(2, n-1)
		p := boxKnapsack(n-rows, rows)
		src, _ := NewSolver(p)
		if sol, _ := src.Solve(p.Lower, p.Upper); sol.Status != Optimal {
			t.Fatalf("n=%d: %v", n, sol.Status)
		}
		b := src.Basis()
		rv := src.rv
		if rv.n != n || b.n != n || len(b.upper) != (n+63)/64 {
			t.Fatalf("n=%d: solver width %d, snapshot of %d columns in %d words", n, rv.n, b.n, len(b.upper))
		}
		allocs = append(allocs, testing.AllocsPerRun(10, func() { src.Basis() }))
		flags := slices.Clone(rv.atUpper[:n])
		if nv := n - rows; nv > 64 && !slices.Contains(flags[64:nv], true) {
			t.Fatalf("n=%d: no column past the first word rests at its upper bound", n)
		}

		basic, atUpper := b.Columns(p)
		if wantBasic, wantUpper := refColumns(p, rv.basis, flags); !slices.Equal(basic, wantBasic) || !slices.Equal(atUpper, wantUpper) {
			t.Fatalf("n=%d: Columns = %v %v, want %v %v", n, basic, atUpper, wantBasic, wantUpper)
		}

		// Refactorization may reorder the rows, so the reference is the
		// source reinstalling its own snapshot.
		dst, _ := NewSolver(p)
		if !dst.state().install(b) || !rv.install(b) {
			t.Fatalf("n=%d: a solver refused the snapshot", n)
		}
		if !slices.Equal(dst.rv.basis, rv.basis) || !slices.Equal(dst.rv.atUpper, rv.atUpper) ||
			!slices.Equal(rv.atUpper[:n], flags) || slices.Contains(rv.atUpper[n:], true) {
			t.Fatalf("n=%d: installed basis %v flags %v, reinstalled %v %v, snapshot flags %v",
				n, dst.rv.basis, dst.rv.atUpper, rv.basis, rv.atUpper, flags)
		}
		lower, upper := slices.Clone(p.Lower), slices.Clone(p.Upper)
		upper[n-rows-1] = 0
		want, wantWarm := src.SolveFrom(b, lower, upper)
		got, warm := dst.SolveFrom(b, lower, upper)
		if warm != wantWarm || fmt.Sprint(*got) != fmt.Sprint(*want) {
			t.Fatalf("n=%d: the second solver's next solve %+v (warm %t), the first's %+v (warm %t)", n, *got, warm, *want, wantWarm)
		}

		wider := boxKnapsack(n-rows+1, rows)
		other, _ := NewSolver(wider)
		if other.state().install(b) {
			t.Fatalf("n=%d: a solver %d columns wide installed the snapshot", n, other.rv.n)
		}
		if sol, warm := other.SolveFrom(b, wider.Lower, wider.Upper); warm || sol.Status != Optimal ||
			other.Stats.FallbackCold != 1 || other.Stats.Cold != 1 {
			t.Fatalf("n=%d: a misfit snapshot solved %v (warm %t, stats %+v), want a cold fallback", n, sol.Status, warm, other.Stats)
		}
	}
	if slices.Min(allocs) != slices.Max(allocs) {
		t.Fatalf("Basis() allocations by width: %v, want one count at every width", allocs)
	}
}

// refColumns is Basis.Columns computed from the solver's own basis and bool
// flags: a structural column is itself, a slack is its row's logical, and an
// artificial is its row's logical too.
func refColumns(p *Problem, basis []int, flags []bool) ([]int, []bool) {
	nv := p.NumVars()
	var slackRow []int
	for r, c := range p.Constraints {
		if c.Sense != EQ {
			slackRow = append(slackRow, r)
		}
	}
	var basic []int
	for _, c := range basis {
		switch {
		case c < nv:
			basic = append(basic, c)
		case c < nv+len(slackRow):
			basic = append(basic, nv+slackRow[c-nv])
		default:
			basic = append(basic, nv+(c-nv-len(slackRow)))
		}
	}
	return basic, flags[:nv]
}
