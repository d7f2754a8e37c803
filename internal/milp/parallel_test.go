package milp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"insitu/internal/lp"
	"insitu/internal/obs"
)

// widths are the wave widths every width-sensitive test runs at: the two
// spellings of a wave of one, the smallest real wave, and one wider than
// most test trees.
var widths = []int{0, 1, 2, 8}

// randParallelMILP draws a small binary program with mixed senses, shaped
// like the compact scheduling model (knapsack rows plus occasional equality
// couplings), including infeasible instances.
func randParallelMILP(rng *rand.Rand) *Problem {
	n := 2 + rng.Intn(7)
	p := NewProblem(&lp.Problem{})
	integralObj := rng.Intn(2) == 0
	for j := 0; j < n; j++ {
		obj := float64(rng.Intn(15) - 4)
		if !integralObj {
			obj += 0.25 * float64(rng.Intn(4))
		}
		p.AddBinVar(obj, "")
	}
	idx := make([]int, n)
	for j := range idx {
		idx[j] = j
	}
	m := 1 + rng.Intn(4)
	for r := 0; r < m; r++ {
		coef := make([]float64, n)
		for j := range coef {
			coef[j] = float64(rng.Intn(7) - 2)
		}
		switch rng.Intn(10) {
		case 0:
			p.LP.AddConstraint(idx, coef, lp.EQ, float64(rng.Intn(3)), "")
		case 1, 2:
			p.LP.AddConstraint(idx, coef, lp.GE, float64(rng.Intn(4)-2), "")
		default:
			p.LP.AddConstraint(idx, coef, lp.LE, float64(2+rng.Intn(6)), "")
		}
	}
	return p
}

// TestParallelMatchesSerial pins the cross-width contract: any wave width
// returns the same status, objective, and terminal bound as a wave of one.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(511))
	for trial := 0; trial < 120; trial++ {
		p := randParallelMILP(rng)
		serial, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: serial: %v", trial, err)
		}
		for _, w := range []int{2, 3, 8} {
			par, err := Solve(p, Options{Workers: w})
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, w, err)
			}
			if par.Status != serial.Status {
				t.Fatalf("trial %d workers=%d: status %v, serial %v", trial, w, par.Status, serial.Status)
			}
			if serial.Status == Optimal {
				if math.Abs(par.Objective-serial.Objective) > 1e-9*(1+math.Abs(serial.Objective)) {
					t.Fatalf("trial %d workers=%d: objective %g, serial %g", trial, w, par.Objective, serial.Objective)
				}
				if pb, sb := par.Stats.BestBound, serial.Stats.BestBound; math.Abs(pb-sb) > 1e-9*(1+math.Abs(sb)) {
					t.Fatalf("trial %d workers=%d: bound %g, serial %g", trial, w, pb, sb)
				}
				if viol := p.LP.FirstViolation(par.X, 1e-6); viol != "" {
					t.Fatalf("trial %d workers=%d: incumbent infeasible: %s", trial, w, viol)
				}
			}
		}
	}
}

// TestParallelDeterministic solves the same instances twice at the same
// width and requires identical search statistics and flight streams (node
// and incumbent records included, the wall clock excluded) — the
// determinism contract for a fixed Workers value.
func TestParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(902))
	for trial := 0; trial < 40; trial++ {
		p := randParallelMILP(rng)
		run := func() (*Solution, []obs.SolveProgress) {
			var events []obs.SolveProgress
			sol, err := Solve(p, Options{Workers: 4, Progress: func(ev obs.SolveProgress) {
				ev.TUS = 0
				events = append(events, ev)
			}})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			return sol, events
		}
		a, evA := run()
		b, evB := run()
		if a.Objective != b.Objective || a.Stats.BestBound != b.Stats.BestBound || a.Status != b.Status {
			t.Fatalf("trial %d: repeated solve differs: (%v %g %g) vs (%v %g %g)",
				trial, a.Status, a.Objective, a.Stats.BestBound, b.Status, b.Objective, b.Stats.BestBound)
		}
		if a.Stats.Nodes != b.Stats.Nodes || a.Stats.Relaxations != b.Stats.Relaxations ||
			a.Stats.Pivots != b.Stats.Pivots || a.Stats.WarmSolves != b.Stats.WarmSolves ||
			a.Stats.ColdSolves != b.Stats.ColdSolves {
			t.Fatalf("trial %d: stats differ: %+v vs %+v", trial, a.Stats, b.Stats)
		}
		if !reflect.DeepEqual(evA, evB) {
			t.Fatalf("trial %d: flight streams differ (%d vs %d events)", trial, len(evA), len(evB))
		}
	}
}

// TestParallelObserverStream checks that the serialized parallel node
// records keep the invariants TreeRecorder depends on: node ids are
// 1..Nodes in order, parent links point at previously streamed nodes, and
// the incumbent field is monotone.
func TestParallelObserverStream(t *testing.T) {
	p := hardInstance(7, 14)
	rec := NewTreeRecorder()
	sol, err := Solve(p, Options{Workers: 4, Progress: rec.Observe})
	events := rec.Nodes()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != sol.Stats.Nodes {
		t.Fatalf("got %d events for %d explored nodes", len(events), sol.Stats.Nodes)
	}
	seen := map[int]bool{0: true}
	lastInc := math.Inf(-1)
	for i, ev := range events {
		if ev.Node != i+1 {
			t.Fatalf("event %d has node id %d", i, ev.Node)
		}
		if !seen[ev.Parent] {
			t.Fatalf("node %d has parent %d that was never streamed", ev.Node, ev.Parent)
		}
		if ev.HasInc && ev.Incumbent < lastInc {
			t.Fatalf("node %d incumbent %g regressed below %g", ev.Node, ev.Incumbent, lastInc)
		}
		if ev.HasInc {
			lastInc = ev.Incumbent
		}
		seen[ev.Node] = true
	}
}

// TestParallelWarmStarts checks that every width re-solves children from
// their parents' bases — one cold root and nothing else cold unless a warm
// answer had to be redone — that NoWarmStart suppresses it, and that both
// return the same answer.
func TestParallelWarmStarts(t *testing.T) {
	p := hardInstance(3, 16)
	for _, w := range widths {
		warm, err := Solve(p, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Solve(p, Options{Workers: w, NoWarmStart: true})
		if err != nil {
			t.Fatal(err)
		}
		if st := warm.Stats; st.WarmSolves == 0 || st.WarmSolves+st.ColdSolves != st.Nodes {
			t.Fatalf("workers=%d: %d warm + %d cold solves over %d nodes", w, st.WarmSolves, st.ColdSolves, st.Nodes)
		}
		if st := warm.Stats; st.FallbackColds == 0 && st.ColdSolves > 1+st.Nodes/10 {
			t.Fatalf("workers=%d: %d of %d nodes solved cold with no fallback to blame", w, st.ColdSolves, st.Nodes)
		}
		if cold.Stats.WarmSolves != 0 {
			t.Fatalf("workers=%d: NoWarmStart still produced %d warm solves", w, cold.Stats.WarmSolves)
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-9 {
			t.Fatalf("workers=%d: warm objective %g, cold %g", w, warm.Objective, cold.Objective)
		}
		if want := max(w, 1); warm.Stats.Workers != want {
			t.Fatalf("Stats.Workers = %d, want %d", warm.Stats.Workers, want)
		}
	}
}

// TestFractionalIntegerBoundsNeverYieldIncumbent pins the rounding
// heuristic's clamp on a pure-integer model: with 0.3 <= x <= 0.7 there is no
// integer to round to, and a candidate clamped to the raw bounds (x = 0.3
// satisfies every row) must not be taken for a solution at any width.
func TestFractionalIntegerBoundsNeverYieldIncumbent(t *testing.T) {
	p := NewProblem(&lp.Problem{})
	x := addIntVar(p, 1, 0.3, 0.7, "x")
	idx, coef := []int{x}, []float64{1}
	for j := 0; j < 6; j++ {
		// Free binaries around x, so the search branches (and rounds) at
		// several nodes before it runs out of tree.
		idx = append(idx, p.AddBinVar(1+float64(j)/4, ""))
		coef = append(coef, 1.5+float64(j)/3)
	}
	p.LP.AddConstraint(idx, coef, lp.LE, 5, "cap")
	for _, w := range widths {
		sol, incs := incumbentRecords(t, p, Options{Workers: w})
		if sol.Status != Infeasible || sol.HasX || len(incs) != 0 {
			t.Fatalf("workers=%d: status %v, HasX %t, %d incumbents; want infeasible with none",
				w, sol.Status, sol.HasX, len(incs))
		}
		if sol.Stats.BranchedNodes == 0 {
			t.Fatalf("workers=%d: nothing branched, the heuristic never ran below the root", w)
		}
	}
}

// TestParallelNodeLimit checks the budget path at every width: the search
// must stop at MaxNodes with NodeLimit and keep its incumbent.
func TestParallelNodeLimit(t *testing.T) {
	p := hardInstance(11, 18)
	for _, w := range widths {
		sol, err := Solve(p, Options{Workers: w, MaxNodes: 8})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if sol.Status != NodeLimit {
			t.Fatalf("workers=%d: status %v, want node-limit", w, sol.Status)
		}
		if sol.Stats.Nodes > 8 {
			t.Fatalf("workers=%d: explored %d nodes past the budget of 8", w, sol.Stats.Nodes)
		}
		if sol.HasX && sol.Stats.BestBound < sol.Objective-1e-9 {
			t.Fatalf("workers=%d: terminal bound %g below incumbent %g", w, sol.Stats.BestBound, sol.Objective)
		}
	}
}
