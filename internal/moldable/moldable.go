// Package moldable chooses the partition size for a moldable job (§5.3.3):
// schedulers may run the same strong-scaling problem on any of several rank
// counts, and the right choice depends on what it buys — faster simulation,
// but a smaller in-situ analysis budget when the threshold is a percentage
// of the simulation time. Advise solves the in-situ scheduling MILP at every
// candidate size and ranks the candidates by the requested objective.
package moldable

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"insitu/internal/core"
	"insitu/internal/machine"
)

// Candidate is one admissible partition size with its measured or predicted
// simulation performance and analysis cost profiles.
type Candidate struct {
	Ranks         int
	SimSecPerStep float64
	Specs         []core.AnalysisSpec
}

// Objective selects how candidates are ranked.
type Objective int

// Ranking objectives.
const (
	// MaxScience maximizes the scheduling objective |A| + Σ w|C|; ties go
	// to the fewest node-hours.
	MaxScience Objective = iota
	// MaxSciencePerNodeHour maximizes objective per consumed node-hour, the
	// backfill-utilization view of §5.3.3.
	MaxSciencePerNodeHour
	// MinRuntime minimizes end-to-end runtime among candidates whose
	// schedule keeps every analysis enabled; ties go to fewer node-hours.
	MinRuntime
)

// String names the objective.
func (o Objective) String() string {
	switch o {
	case MaxScience:
		return "max-science"
	case MaxSciencePerNodeHour:
		return "max-science-per-node-hour"
	case MinRuntime:
		return "min-runtime"
	}
	return fmt.Sprintf("Objective(%d)", int(o))
}

// Row is the evaluation of one candidate.
type Row struct {
	Ranks     int
	Nodes     int
	Threshold float64
	Rec       *core.Recommendation
	// RuntimeSec is the modeled end-to-end time: simulation plus in-situ
	// analyses.
	RuntimeSec float64
	NodeHours  float64
	Science    float64
}

// Advice is the ranked outcome.
type Advice struct {
	Objective Objective
	Best      Row
	Rows      []Row // all candidates, best first
}

// Config parameterizes the advisor.
type Config struct {
	Steps        int
	ThresholdPct float64 // in-situ budget as % of simulation time
	MemThreshold int64
}

// Advise evaluates every candidate and returns them ranked under the
// objective.
func Advise(m *machine.Machine, cands []Candidate, cfg Config, obj Objective) (*Advice, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("moldable: no candidates")
	}
	if cfg.Steps <= 0 || cfg.ThresholdPct <= 0 {
		return nil, fmt.Errorf("moldable: need positive steps and threshold percentage")
	}
	var rows []Row
	for _, c := range cands {
		part, err := m.PartitionForRanks(c.Ranks)
		if err != nil {
			return nil, fmt.Errorf("moldable: ranks=%d: %w", c.Ranks, err)
		}
		res := core.Resources{
			Steps:         cfg.Steps,
			TimeThreshold: core.PercentThreshold(c.SimSecPerStep, cfg.Steps, cfg.ThresholdPct),
			MemThreshold:  cfg.MemThreshold,
		}
		rec, err := core.Solve(c.Specs, res, core.SolveOptions{})
		if err != nil {
			return nil, fmt.Errorf("moldable: ranks=%d: %w", c.Ranks, err)
		}
		runtime := c.SimSecPerStep*float64(cfg.Steps) + rec.TotalTime
		rows = append(rows, Row{
			Ranks:      c.Ranks,
			Nodes:      part.Nodes,
			Threshold:  res.TimeThreshold,
			Rec:        rec,
			RuntimeSec: runtime,
			NodeHours:  float64(part.Nodes) * runtime / 3600,
			Science:    rec.Objective,
		})
	}

	less := func(a, b Row) bool {
		switch obj {
		case MaxScience:
			if a.Science != b.Science {
				return a.Science > b.Science
			}
			return a.NodeHours < b.NodeHours
		case MaxSciencePerNodeHour:
			ra := a.Science / math.Max(a.NodeHours, 1e-12)
			rb := b.Science / math.Max(b.NodeHours, 1e-12)
			if ra != rb {
				return ra > rb
			}
			return a.RuntimeSec < b.RuntimeSec
		default: // MinRuntime
			ea, eb := a.Rec.EnabledCount(), b.Rec.EnabledCount()
			if ea != eb {
				return ea > eb // keep all analyses alive first
			}
			if a.RuntimeSec != b.RuntimeSec {
				return a.RuntimeSec < b.RuntimeSec
			}
			return a.NodeHours < b.NodeHours
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return less(rows[i], rows[j]) })
	return &Advice{Objective: obj, Best: rows[0], Rows: rows}, nil
}

// String renders the ranked table.
func (a *Advice) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "moldable advice (%s):\n", a.Objective)
	fmt.Fprintf(&b, "%-8s %-7s %-12s %-12s %-11s %-9s\n",
		"ranks", "nodes", "runtime(s)", "node-hours", "science", "sci/nh")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-8d %-7d %-12.1f %-12.1f %-11.1f %-9.3f\n",
			r.Ranks, r.Nodes, r.RuntimeSec, r.NodeHours, r.Science,
			r.Science/math.Max(r.NodeHours, 1e-12))
	}
	return b.String()
}
