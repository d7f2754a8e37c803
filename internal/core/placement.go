package core

import (
	"fmt"

	"insitu/internal/lp"
	"insitu/internal/milp"
)

// This file implements the paper's stated future work (§6): "extend this
// work to optimally schedule the analyses computations on different
// resources", i.e. choose per analysis between in-situ execution (on the
// simulation resource, counted against the simulation-site threshold) and
// co-analysis execution (on dedicated staging resources, paying a network
// transfer of the analysis input instead of the compute time).

// Site is where an analysis executes.
type Site int

// Placement sites.
const (
	InSitu Site = iota // simulation resource, same address space
	CoAnalysis
)

// String names the site.
func (s Site) String() string {
	switch s {
	case InSitu:
		return "in-situ"
	case CoAnalysis:
		return "co-analysis"
	}
	return fmt.Sprintf("Site(%d)", int(s))
}

// PlacementSpec extends AnalysisSpec with the co-analysis cost terms.
type PlacementSpec struct {
	AnalysisSpec
	// TransferBytes is the simulation data shipped to the staging site per
	// analysis step when running in co-analysis mode.
	TransferBytes int64
	// StageMem is the staging-site memory the analysis occupies when placed
	// there (0 defaults to FM+CM).
	StageMem int64
}

// PlacementResources extends Resources with the staging side.
type PlacementResources struct {
	Resources
	// NetBandwidth is the simulation-to-staging network bandwidth in
	// bytes/s; the per-analysis transfer time TransferBytes/NetBandwidth is
	// charged against the simulation-site threshold (the simulation blocks
	// while its memory is being shipped).
	NetBandwidth float64
	// StageMemTotal is the memory available on the staging nodes.
	StageMemTotal int64
	// StageTimeTotal bounds the total compute time on the staging resource
	// (0 = unconstrained: staging nodes are dedicated).
	StageTimeTotal float64
}

// Validate rejects invalid envelopes.
func (r PlacementResources) Validate() error {
	if err := r.Resources.Validate(); err != nil {
		return err
	}
	if r.NetBandwidth <= 0 {
		return fmt.Errorf("core: placement needs a positive network bandwidth")
	}
	if r.StageMemTotal < 0 || r.StageTimeTotal < 0 {
		return fmt.Errorf("core: negative staging resource")
	}
	return nil
}

// PlacementSchedule is AnalysisSchedule plus the chosen site.
type PlacementSchedule struct {
	AnalysisSchedule
	Site Site
	// SimSiteTime is this analysis' contribution to the simulation-site
	// threshold (full cost in-situ; transfer cost only in co-analysis).
	SimSiteTime float64
	// StageTime is the compute time consumed on the staging resource (0 for
	// in-situ placement).
	StageTime float64
}

// PlacementRecommendation is the solver output for the placement model.
type PlacementRecommendation struct {
	Schedules   []PlacementSchedule
	Objective   float64
	SimSiteTime float64
	StageTime   float64
	// Stats instruments the branch-and-bound search (see milp.Stats).
	Stats milp.Stats
}

// Schedule returns the placement schedule for the named analysis, or nil.
func (r *PlacementRecommendation) Schedule(name string) *PlacementSchedule {
	for i := range r.Schedules {
		if r.Schedules[i].Name == name {
			return &r.Schedules[i]
		}
	}
	return nil
}

// placementMode extends mode with a site choice and site-split costs.
type placementMode struct {
	mode
	site    Site
	simTime float64
	stage   float64
}

// placementRef records which analysis and mode a placement column selects.
type placementRef struct {
	analysis int
	m        placementMode
}

// SolvePlacement chooses, for every analysis, a site, a frequency, and an
// output stride, maximizing the same objective as Solve. In-situ modes pay
// their full cost against the simulation-site threshold and their peak
// memory against the simulation-site ceiling; co-analysis modes pay only
// the per-analysis transfer time at the simulation site, moving compute
// time and memory to the staging resource.
func SolvePlacement(specs []PlacementSpec, res PlacementResources, opts SolveOptions) (*PlacementRecommendation, error) {
	norm, prob, refs, err := buildPlacementProblem(specs, res, opts)
	if err != nil {
		return nil, err
	}
	sol, _, err := solveModel("placement", prob, opts)
	if err != nil {
		return nil, err
	}

	rec := &PlacementRecommendation{Stats: sol.Stats}
	chosen := make(map[int]placementMode)
	for v, ref := range refs {
		if sol.HasX && sol.X[v] > 0.5 {
			chosen[ref.analysis] = ref.m
		}
	}
	for i, a := range norm {
		m, ok := chosen[i]
		if !ok {
			rec.Schedules = append(rec.Schedules, PlacementSchedule{
				AnalysisSchedule: AnalysisSchedule{Name: a.Name},
				Site:             InSitu,
			})
			continue
		}
		base := buildSchedule(a.AnalysisSpec, res.Resources, m.count, m.k)
		ps := PlacementSchedule{
			AnalysisSchedule: base,
			Site:             m.site,
			SimSiteTime:      m.simTime,
			StageTime:        m.stage,
		}
		if m.site == CoAnalysis {
			ps.PredictedTime = m.simTime + m.stage
		}
		rec.Schedules = append(rec.Schedules, ps)
		rec.Objective += 1 + a.Weight*float64(m.count)
		rec.SimSiteTime += m.simTime
		rec.StageTime += m.stage
	}
	if res.TimeThreshold > 0 && rec.SimSiteTime > res.TimeThreshold*(1+1e-9) {
		return nil, fmt.Errorf("core: placement solution exceeds simulation-site threshold: %g > %g",
			rec.SimSiteTime, res.TimeThreshold)
	}
	return rec, nil
}

// buildPlacementProblem validates and normalizes specs and constructs the
// placement MILP over them, with the column references SolvePlacement reads
// its answer through.
func buildPlacementProblem(specs []PlacementSpec, res PlacementResources, opts SolveOptions) ([]PlacementSpec, *milp.Problem, []placementRef, error) {
	if err := res.Validate(); err != nil {
		return nil, nil, nil, err
	}
	norm := make([]PlacementSpec, len(specs))
	for i, a := range specs {
		if err := a.AnalysisSpec.Validate(); err != nil {
			return nil, nil, nil, err
		}
		norm[i] = a
		norm[i].AnalysisSpec = a.AnalysisSpec.withDefaults()
		if norm[i].StageMem == 0 {
			norm[i].StageMem = norm[i].FM + norm[i].CM
		}
	}

	prob := milp.NewProblem(&lp.Problem{})
	var refs []placementRef
	var simTimeIdx, memIdx, stageTimeIdx, stageMemIdx []int
	var simTimeCoef, memCoef, stageTimeCoef, stageMemCoef []float64
	perAnalysis := make([][]int, len(norm))

	for i, a := range norm {
		for _, m := range enumerateModes(a.AnalysisSpec, res.Resources, opts.MaxCount) {
			// In-situ variant: identical to Solve.
			obj := 1 + a.Weight*float64(m.count)
			j := prob.AddBinVar(obj, fmt.Sprintf("x[%s,insitu,n=%d,k=%d]", a.Name, m.count, m.k))
			refs = append(refs, placementRef{i, placementMode{mode: m, site: InSitu, simTime: m.cost}})
			perAnalysis[i] = append(perAnalysis[i], j)
			simTimeIdx = append(simTimeIdx, j)
			simTimeCoef = append(simTimeCoef, m.cost)
			memIdx = append(memIdx, j)
			memCoef = append(memCoef, float64(m.peakMem))
		}
		// Co-analysis variants: the simulation site pays ft (coupling
		// setup), it per step, and the transfer per analysis step; compute
		// and output run on the staging side.
		transfer := float64(a.TransferBytes) / res.NetBandwidth
		for count, bound := 1, countBound(a.AnalysisSpec, res.Resources, opts.MaxCount); count <= bound; count++ {
			simTime := a.FT + a.IT*float64(res.Steps) + transfer*float64(count)
			stage := (a.CT + a.outputTime(res.Bandwidth)) * float64(count)
			if res.TimeThreshold > 0 && simTime > res.TimeThreshold {
				continue
			}
			if res.StageTimeTotal > 0 && stage > res.StageTimeTotal {
				continue
			}
			if res.StageMemTotal > 0 && a.StageMem > res.StageMemTotal {
				continue
			}
			m := placementMode{
				mode:    mode{count: count, k: 1},
				site:    CoAnalysis,
				simTime: simTime,
				stage:   stage,
			}
			obj := 1 + a.Weight*float64(count)
			j := prob.AddBinVar(obj, fmt.Sprintf("x[%s,co,n=%d]", a.Name, count))
			refs = append(refs, placementRef{i, m})
			perAnalysis[i] = append(perAnalysis[i], j)
			simTimeIdx = append(simTimeIdx, j)
			simTimeCoef = append(simTimeCoef, simTime)
			stageTimeIdx = append(stageTimeIdx, j)
			stageTimeCoef = append(stageTimeCoef, stage)
			stageMemIdx = append(stageMemIdx, j)
			stageMemCoef = append(stageMemCoef, float64(a.StageMem))
		}
	}

	for i, vars := range perAnalysis {
		if len(vars) == 0 {
			continue
		}
		ones := make([]float64, len(vars))
		for k := range ones {
			ones[k] = 1
		}
		prob.LP.AddConstraint(vars, ones, lp.LE, 1, fmt.Sprintf("one-mode[%s]", norm[i].Name))
	}
	prob.LP.Classes = len(prob.LP.Constraints) // the one-mode rows (see lp.Problem)
	if res.TimeThreshold > 0 && len(simTimeIdx) > 0 {
		prob.LP.AddConstraint(simTimeIdx, simTimeCoef, lp.LE, res.TimeThreshold, "sim-time")
	}
	if res.MemThreshold > 0 && len(memIdx) > 0 {
		prob.LP.AddConstraint(memIdx, memCoef, lp.LE, float64(res.MemThreshold), "sim-mem")
	}
	if res.StageTimeTotal > 0 && len(stageTimeIdx) > 0 {
		prob.LP.AddConstraint(stageTimeIdx, stageTimeCoef, lp.LE, res.StageTimeTotal, "stage-time")
	}
	if res.StageMemTotal > 0 && len(stageMemIdx) > 0 {
		prob.LP.AddConstraint(stageMemIdx, stageMemCoef, lp.LE, float64(res.StageMemTotal), "stage-mem")
	}
	return norm, prob, refs, nil
}
