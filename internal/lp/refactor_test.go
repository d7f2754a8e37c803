package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Refactorization oracle. refactorDense is refactor as it was before it
// carried each column's nonzero pattern: every non-singleton column clears,
// scans and pushes all m rows. It is the reference the pattern-walking
// refactor must match bit for bit — verdict, every eta and the relabelled
// basis — and it lives here only.

// refactorDense is the dense refactorization: same ordering, same singleton
// seating, same pivot rule, with its own scratch.
func refactorDense(rv *revised) bool {
	rv.stats.Refactorizations++
	rv.ef.reset()
	order := make([]int, rv.m)
	factBasis := make([]int, rv.m)
	count := make([]int, rv.m+2)
	rowUsed := make([]bool, rv.m)
	for _, j := range rv.basis {
		count[rv.colNNZ(j)+1]++
	}
	for k := 1; k < len(count); k++ {
		count[k] += count[k-1]
	}
	for pos, j := range rv.basis {
		k := rv.colNNZ(j)
		order[count[k]] = pos
		count[k]++
	}
	w := rv.col
	for _, pos := range order {
		j := rv.basis[pos]
		if rv.colNNZ(j) == 1 {
			r, v := rv.singleton(j)
			if rowUsed[r] || math.Abs(v) <= singularTol {
				return false
			}
			if v != 1 {
				rv.ef.pushSingleton(r, 1/v)
			}
			rowUsed[r] = true
			factBasis[r] = j
			continue
		}
		for i := range w {
			w[i] = 0
		}
		rv.colScatterAdd(j, w)
		rv.ef.ftran(w)
		r := -1
		best := singularTol
		for i := 0; i < rv.m; i++ {
			if rowUsed[i] {
				continue
			}
			if a := math.Abs(w[i]); a > best {
				best = a
				r = i
			}
		}
		if r < 0 {
			return false
		}
		rv.ef.push(r, w)
		rowUsed[r] = true
		factBasis[r] = j
	}
	copy(rv.basis, factBasis)
	rv.lastFact = rv.ef.count()
	rv.noteEta()
	return true
}

// refactorAgrees refactorizes rv's basis with refactor — after leaving junk
// in the column scratch, as a caller's last FTRAN does — and the same basis
// under the same artificial signs with refactorDense on a fresh state of the
// problem. It reports the verdict and the first difference: in the verdict,
// any eta array (floats compared by bits), the relabelled basis or the eta
// count the next refactorization is scheduled from. It also fails a refactor
// that leaves a pattern mark set, on either verdict. (A leaked mark would
// still factorize correctly today — a row is only ever filled through an eta
// whose column scattered it, clearing the mark — so this is the check that
// holds the invariant, not the comparison.)
func refactorAgrees(rv *revised) (bool, error) {
	ref := newRevised(rv.p, rv.cs)
	copy(ref.basis, rv.basis)
	copy(ref.artSign, rv.artSign)
	for i := range rv.col {
		rv.col[i] = float64(i) + 0.5
	}
	got, want := rv.refactor(), refactorDense(ref)
	for i, marked := range rv.inPattern {
		if marked {
			return got, fmt.Errorf("refactor (%t) left row %d marked in the pattern scratch", got, i)
		}
	}
	if got != want {
		return got, fmt.Errorf("refactor reports %t, the dense reference %t", got, want)
	}
	a, b := &rv.ef, &ref.ef
	for _, c := range []struct {
		name      string
		got, want []int
	}{
		{"pivRow", a.pivRow, b.pivRow},
		{"start", a.start, b.start},
		{"idx", a.idx, b.idx},
		{"basis", rv.basis, ref.basis},
	} {
		if err := sameInts(c.got, c.want); err != nil {
			return got, fmt.Errorf("%s: %v", c.name, err)
		}
	}
	for _, c := range []struct {
		name      string
		got, want []float64
	}{
		{"pivVal", a.pivVal, b.pivVal},
		{"val", a.val, b.val},
	} {
		if len(c.got) != len(c.want) {
			return got, fmt.Errorf("%s: %d entries, dense %d", c.name, len(c.got), len(c.want))
		}
		for k := range c.got {
			if math.Float64bits(c.got[k]) != math.Float64bits(c.want[k]) {
				return got, fmt.Errorf("%s[%d] = %v, dense %v", c.name, k, c.got[k], c.want[k])
			}
		}
	}
	if got && rv.lastFact != ref.lastFact {
		return got, fmt.Errorf("lastFact %d, dense %d", rv.lastFact, ref.lastFact)
	}
	return got, nil
}

func sameInts(got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, dense %d", len(got), len(want))
	}
	for k := range got {
		if got[k] != want[k] {
			return fmt.Errorf("[%d] = %d, dense %d", k, got[k], want[k])
		}
	}
	return nil
}

// refactorOracle draws bases from solves of p — a cold solve, then warm
// re-solves under branching-style bound changes, taking whatever basis each
// ends on — and holds refactor to the dense reference on each, as it is and
// with one to three basic columns replaced by random others (duplicates and
// singletons on taken rows among them, so some are singular). One probe state
// refactorizes every basis, so each runs on the scratch the one before left
// behind, singular returns included; the reference is fresh every time. It
// returns how many bases factorized and how many were singular, and how many
// eta entries of fill the factorizations stored.
func refactorOracle(rng *rand.Rand, p *Problem) (seated, singular, fill int, err error) {
	s, err := NewSolver(p)
	if err != nil {
		return 0, 0, 0, err
	}
	probe := newRevised(p, s.rv.cs)
	lower := append([]float64(nil), p.Lower...)
	upper := append([]float64(nil), p.Upper...)
	for step := 0; step < 6; step++ {
		s.Solve(lower, upper)
		src := s.state()
		for swaps := 0; swaps < 4; swaps++ {
			copy(probe.basis, src.basis)
			copy(probe.artSign, src.artSign)
			for k := 0; k < swaps && probe.m > 0; k++ {
				probe.basis[rng.Intn(probe.m)] = rng.Intn(probe.width)
			}
			ok, err := refactorAgrees(probe)
			if err != nil {
				return seated, singular, fill, fmt.Errorf("step %d, %d columns replaced: %v", step, swaps, err)
			}
			if ok {
				seated++
				fill += len(probe.ef.idx)
			} else {
				singular++
			}
		}
		perturbBounds(rng, p, lower, upper)
	}
	return seated, singular, fill, nil
}

// TestRefactorMatchesDenseOnChoiceKnapsacks runs the oracle over the compact
// GUB+knapsack shapes: the crash bases of their cold solves and the bases
// branching leaves, where every structural column has three or more
// nonzeros.
func TestRefactorMatchesDenseOnChoiceKnapsacks(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var seated, singular, fill int
	check := func(name string, p *Problem) {
		s, z, f, err := refactorOracle(rng, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seated, singular, fill = seated+s, singular+z, fill+f
	}
	for trial := 0; trial < 40; trial++ {
		check("choice knapsack", randChoiceKnapsack(rng, 1+rng.Intn(12), 1+rng.Intn(8)))
	}
	for trial := 0; trial < 12; trial++ {
		check("campaign", campaignLP(rng, 3+rng.Intn(100), trial%2 == 1))
	}
	if seated < 500 || singular < 100 || fill < 1000 {
		t.Fatalf("%d bases factorized (%d eta entries of fill), %d singular: the corpus no longer reaches both verdicts", seated, fill, singular)
	}
}

// TestRefactorSingularBases: both refactorizations refuse a basis holding a
// structural column twice and one holding two singletons on one row, and the
// state that refused it then factorizes its proper basis exactly as a fresh
// state does — the pattern scratch a refusal leaves is clean.
func TestRefactorSingularBases(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		p := campaignLP(rng, 5+rng.Intn(40), trial%2 == 1)
		s, err := NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		if sol := s.SolveCold(p.Lower, p.Upper); sol.Status != Optimal {
			t.Fatalf("trial %d: %v", trial, sol.Status)
		}
		src := s.state()
		var structural []int // basis positions holding a column of two or more nonzeros
		for pos, j := range src.basis {
			if src.colNNZ(j) > 1 {
				structural = append(structural, pos)
			}
		}
		if len(structural) < 2 {
			t.Fatalf("trial %d: %d structural columns in the optimal basis", trial, len(structural))
		}
		probe := newRevised(p, s.rv.cs)
		cases := []struct {
			name string
			edit func(basis []int)
		}{
			{"a structural column twice", func(basis []int) {
				a, b := structural[0], structural[1+rng.Intn(len(structural)-1)]
				basis[b] = basis[a]
			}},
			{"a slack and an artificial on one row", func(basis []int) {
				// The time row's slack, and its artificial in place of a
				// one-mode row's basic column.
				r := len(basis) - 2
				basis[r], basis[0] = probe.cs.slackCol[r], probe.n+r
			}},
		}
		for _, tc := range cases {
			copy(probe.basis, src.basis)
			copy(probe.artSign, src.artSign)
			tc.edit(probe.basis)
			if ok, err := refactorAgrees(probe); ok || err != nil {
				t.Fatalf("trial %d, %s: factorized %t (%v), want both refusals", trial, tc.name, ok, err)
			}
			copy(probe.basis, src.basis)
			if ok, err := refactorAgrees(probe); !ok || err != nil {
				t.Fatalf("trial %d, after %s: the optimal basis factorized %t on the used state (%v)", trial, tc.name, ok, err)
			}
		}
	}
}
