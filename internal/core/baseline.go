package core

import "sort"

// GreedySolve is the empirical baseline the paper contrasts with (§3.2:
// "scientists perform simulation-time analyses at a pre-determined
// frequency, often found empirically"): analyses are considered in
// descending weight-per-cost order and each is assigned the largest count
// that still fits the remaining time and memory budget, outputting at every
// analysis step. It is fast but can leave objective value on the table,
// which the ablation benchmark quantifies.
func GreedySolve(specs []AnalysisSpec, res Resources) (*Recommendation, error) {
	if err := res.Validate(); err != nil {
		return nil, err
	}
	norm, err := normalizeSpecs(specs)
	if err != nil {
		return nil, err
	}

	order := make([]int, len(norm))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		ax, ay := norm[order[x]], norm[order[y]]
		cx := modeCost(ax, res, 1, 1)
		cy := modeCost(ay, res, 1, 1)
		if cx <= 0 {
			return true
		}
		if cy <= 0 {
			return false
		}
		return ax.Weight/cx > ay.Weight/cy
	})

	timeLeft := res.TimeThreshold
	memLeft := res.MemThreshold
	schedules := make([]AnalysisSchedule, len(norm))
	var objective, total float64
	for i := range schedules {
		schedules[i] = AnalysisSchedule{Name: norm[i].Name}
	}
	for _, i := range order {
		a := norm[i]
		maxN := res.Steps / a.MinInterval
		for n := maxN; n >= 1; n-- {
			s := buildSchedule(a, res, n, 1)
			if res.TimeThreshold > 0 && s.PredictedTime > timeLeft {
				continue
			}
			if res.MemThreshold > 0 && s.PeakMemory > memLeft {
				continue
			}
			schedules[i] = s
			timeLeft -= s.PredictedTime
			if res.MemThreshold > 0 {
				memLeft -= s.PeakMemory
			}
			objective += 1 + a.Weight*float64(n)
			total += s.PredictedTime
			break
		}
	}

	rec := &Recommendation{Schedules: schedules, Objective: objective, TotalTime: total}
	return rec.validated("greedy", specs, res)
}

// FixedFrequency builds the user-prescribed baseline: every analysis runs at
// its minimum interval and outputs every `outputEvery` analysis steps, with
// no regard for the thresholds. The returned error (from validation against
// the envelope) tells the caller whether the naive schedule would blow the
// budget — the situation the optimization model exists to prevent.
func FixedFrequency(specs []AnalysisSpec, res Resources, outputEvery int) (*Recommendation, error) {
	if outputEvery <= 0 {
		outputEvery = 1
	}
	norm, err := normalizeSpecs(specs)
	if err != nil {
		return nil, err
	}
	rec := &Recommendation{}
	for _, a := range norm {
		n := res.Steps / a.MinInterval
		if n < 1 {
			n = 1
		}
		s := buildSchedule(a, res, n, outputEvery)
		rec.Schedules = append(rec.Schedules, s)
		rec.Objective += 1 + a.Weight*float64(n)
		rec.TotalTime += s.PredictedTime
	}
	rec.PeakMemory, err = rec.check(specs, res)
	return rec, err
}
