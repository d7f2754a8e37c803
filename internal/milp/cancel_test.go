package milp

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// TestSolveCanceled: a pre-canceled context stops the search after the root
// at every width, with an error wrapping ErrCanceled.
func TestSolveCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for trial := 0; trial < 40; trial++ {
		p := randParallelMILP(rng)
		for _, w := range widths {
			sol, err := Solve(p, Options{Workers: w, Ctx: canceled})
			if err == nil {
				// Legal: the root already finished the search (infeasible,
				// unbounded, or integral root) before any cancellation check.
				if sol == nil {
					t.Fatalf("trial %d workers=%d: nil solution and nil error", trial, w)
				}
				continue
			}
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("trial %d workers=%d: error %v does not wrap ErrCanceled", trial, w, err)
			}
			if sol != nil {
				t.Fatalf("trial %d workers=%d: canceled solve returned a solution", trial, w)
			}
		}
	}
}

// TestSolveUncanceledContextIdentical: attaching a live context must not
// perturb the search — same status, objective, bound, and node count as the
// nil-context solve.
func TestSolveUncanceledContextIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(412))
	ctx := context.Background()
	for trial := 0; trial < 60; trial++ {
		p := randParallelMILP(rng)
		for _, w := range []int{1, 2, 4} {
			base, err := Solve(p, Options{Workers: w})
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, w, err)
			}
			withCtx, err := Solve(p, Options{Workers: w, Ctx: ctx})
			if err != nil {
				t.Fatalf("trial %d workers=%d with ctx: %v", trial, w, err)
			}
			if base.Status != withCtx.Status || base.Objective != withCtx.Objective ||
				base.Stats.BestBound != withCtx.Stats.BestBound || base.Stats.Nodes != withCtx.Stats.Nodes {
				t.Fatalf("trial %d workers=%d: context changed the search: %+v vs %+v",
					trial, w, base, withCtx)
			}
		}
	}
}
