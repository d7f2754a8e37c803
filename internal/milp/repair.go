package milp

import (
	"cmp"
	"slices"

	"insitu/internal/lp"
)

// repairPasses caps the passes repair makes over the classes.
const repairPasses = 4

// repair is the rounding heuristic's class-wise fill-and-swap, for a
// pure-integer model that declares the multiple-choice knapsack shape
// (lp.Problem.Classes), which lp.Problem.Validate checked before the search
// started. Floor-all empties every class the relaxation split between
// modes, and the rows then have room a whole mode would fill. run gives each
// class, pass by pass, the highest-objective mode that fits what the rows
// have left plus what the class's own mode uses — which fills an empty class
// and swaps a filled one up — so the point it leaves satisfies every row the
// floor point did and scores at least as much.
//
// The tables are built by the first run of a solve, over the arrays the
// pooled search held, so a repair allocates nothing and a search whose root
// is integral builds none. A model with no class that has a mode leaves them
// empty and run a no-op.
type repair struct {
	k      int       // knapsack rows: the model's rows from Classes on
	coef   []float64 // column j's knapsack coefficients, coef[j*k : j*k+k]
	rhs    []float64 // per knapsack row
	resid  []float64 // per knapsack row: what the point leaves of it
	free   []float64 // per knapsack row: resid plus what one class's mode uses
	start  []int32   // class g's modes are order[start[g]:start[g+1]]
	order  []int32   // each class's modes by objective descending, then index
	class  []int32   // per column: the class row it is in, -1 for none
	cur    []int32   // per class: its column the point sets to 1, -1 for none
	stale  bool      // the tables are not built for this solve's model yet
	active bool      // some class has a mode
}

// init builds the tables for p. A mode is a class row's column whose upper
// bound is 1 or more (its lower bound is nonnegative by the shape); a class
// with a column that must be at least 1 keeps its floor mode, and has none.
func (r *repair) init(p *Problem) {
	lpp := p.LP
	n, classes := lpp.NumVars(), lpp.Classes
	k := len(lpp.Constraints) - classes
	*r = repair{
		k: k, coef: lp.Resize(r.coef, n*k), rhs: lp.Resize(r.rhs, k),
		resid: lp.Resize(r.resid, k), free: lp.Resize(r.free, k),
		start: lp.Resize(r.start, classes+1), order: lp.Resize(r.order, n)[:0], class: lp.Resize(r.class, n),
		cur: lp.Resize(r.cur, classes),
	}
	for i, c := range lpp.Constraints[classes:] {
		r.rhs[i] = c.RHS
		for t, j := range c.Idx {
			r.coef[j*k+i] = c.Coef[t]
		}
	}
	for j := range r.class {
		r.class[j] = -1
	}
	for g, c := range lpp.Constraints[:classes] {
		locked := false
		for _, j := range c.Idx {
			r.class[j] = int32(g)
			locked = locked || lpp.Lower[j] > 0
		}
		from := len(r.order)
		if !locked {
			for _, j := range c.Idx {
				if lpp.Upper[j] >= 1 {
					r.order = append(r.order, int32(j))
				}
			}
		}
		slices.SortFunc(r.order[from:], func(a, b int32) int {
			if d := cmp.Compare(lpp.Objective[b], lpp.Objective[a]); d != 0 {
				return d
			}
			return cmp.Compare(a, b)
		})
		r.start[g+1] = int32(len(r.order))
	}
	r.active = len(r.order) > 0
}

// run repairs the rounded point x of p in place: it charges every nonzero
// column of x to the knapsack rows, then makes up to repairPasses passes over
// the classes in index order, giving each the first mode in its order that
// scores more than the class's current one and fits the rows' residual plus
// that mode's own use. It stops after a pass that changes nothing.
func (r *repair) run(p *Problem, x []float64) {
	if r.stale {
		r.init(p)
	}
	if !r.active {
		return
	}
	obj, k, coef, resid, free := p.LP.Objective, r.k, r.coef, r.resid, r.free
	copy(resid, r.rhs)
	for g := range r.cur {
		r.cur[g] = -1
	}
	for j, v := range x {
		if v == 0 {
			continue
		}
		if g := r.class[j]; g >= 0 && v == 1 && r.cur[g] < 0 {
			r.cur[g] = int32(j)
		}
		for i, a := range coef[j*k : j*k+k] {
			resid[i] -= v * a
		}
	}
	for pass := 0; pass < repairPasses; pass++ {
		moved := false
		for g, c := range r.cur {
			best := 0.0
			copy(free, resid)
			if c >= 0 {
				best = obj[c]
				for i, a := range coef[int(c)*k : int(c)*k+k] {
					free[i] += a
				}
			}
			for _, j := range r.order[r.start[g]:r.start[g+1]] {
				if obj[j] <= best {
					break
				}
				if !fits(coef[int(j)*k:int(j)*k+k], free) {
					continue
				}
				for i, a := range coef[int(j)*k : int(j)*k+k] {
					resid[i] = free[i] - a
				}
				if c >= 0 {
					x[c] = 0
				}
				x[j] = 1
				r.cur[g] = j
				moved = true
				break
			}
		}
		if !moved {
			return
		}
	}
}

// fits reports whether a mode using a of each knapsack row fits in free.
func fits(a, free []float64) bool {
	for i, v := range a {
		if v > free[i] {
			return false
		}
	}
	return true
}
