package experiments

import (
	"fmt"
	"strings"
	"time"

	"insitu/internal/analysis"
	"insitu/internal/analysis/mdkernels"
	"insitu/internal/campaign"
	"insitu/internal/core"
	"insitu/internal/sim/md"
)

// MemorySweepRow is one memory-ceiling setting of the mth ablation.
type MemorySweepRow struct {
	MemThreshold int64
	Objective    float64
	CountA4      int
	PeakMemory   int64
}

// MemorySweep is the DESIGN.md ablation on the memory ceiling mth: with the
// Table-5 time threshold held at 20%, the memory budget shrinks from 12 GiB
// to 1 GiB and the memory-hungry A4 (4 GiB fixed + 1 GiB per analysis step)
// is squeezed out while A1-A3 persist — the FLASH-style "memory-intensive
// simulations may have low available free memory" scenario of §3.
func MemorySweep() ([]MemorySweepRow, error) {
	specs := WaterIonsSpecs(16384)
	var rows []MemorySweepRow
	for _, mth := range []int64{12 << 30, 8 << 30, 6 << 30, 4 << 30, 1 << 30} {
		res := core.Resources{Steps: 1000, TimeThreshold: 129.35, MemThreshold: mth}
		rec, err := core.Solve(specs, res, core.SolveOptions{})
		if err != nil {
			return nil, fmt.Errorf("memory sweep mth=%d: %w", mth, err)
		}
		rows = append(rows, MemorySweepRow{
			MemThreshold: mth,
			Objective:    rec.Objective,
			CountA4:      rec.Schedule("A4 msd").Count,
			PeakMemory:   rec.PeakMemory,
		})
	}
	return rows, nil
}

// FormatMemorySweep renders the ablation.
func FormatMemorySweep(rows []MemorySweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: memory ceiling (mth) sweep at the 20%% Table-5 threshold\n")
	fmt.Fprintf(&b, "%-14s %-12s %-8s %-14s\n", "mth (GiB)", "objective", "A4", "peak (GiB)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14.1f %-12.1f %-8d %-14.2f\n",
			float64(r.MemThreshold)/(1<<30), r.Objective, r.CountA4,
			float64(r.PeakMemory)/(1<<30))
	}
	return b.String()
}

// CouplingValidation is the end-to-end §5 loop on the real mini-app:
// profile the water+ions kernels, solve the MILP, execute the recommended
// schedule, and compare executed analysis time against the threshold (the
// "% within threshold" methodology of Tables 5-6, measured rather than
// modeled).
type CouplingValidation struct {
	Threshold   time.Duration
	SimTime     time.Duration
	Executed    time.Duration
	Utilization float64 // executed / threshold
	Analyses    int     // total executed analysis steps
	Scheduled   int     // total scheduled analysis steps
}

// ValidateCoupling runs the full pipeline at laptop scale: 3000 atoms for 60
// steps under a 10% threshold.
func ValidateCoupling() (*CouplingValidation, error) {
	sys, err := md.NewWaterIons(md.Config{NAtoms: 3000, Seed: 31})
	if err != nil {
		return nil, err
	}
	a1, err := mdkernels.NewHydroniumRDF(sys, mdkernels.RDFConfig{Ranks: 2})
	if err != nil {
		return nil, err
	}
	a3, err := mdkernels.NewVACF(sys, 2)
	if err != nil {
		return nil, err
	}
	a4, err := mdkernels.NewMSD(sys, 2)
	if err != nil {
		return nil, err
	}
	c, err := campaign.New(campaign.Config{
		Sim:              campaign.SimFunc{AppName: "water+ions", StepFn: func() { sys.Step(0.002) }},
		Kernels:          []analysis.Kernel{a1, a3, a4},
		Steps:            60,
		MinInterval:      6,
		ThresholdPercent: 10,
		MemBudget:        1 << 32,
	})
	if err != nil {
		return nil, err
	}
	o, err := c.Run()
	if err != nil {
		return nil, err
	}
	res := o.Plan.Resources
	out := &CouplingValidation{
		Threshold:   time.Duration(res.TimeThreshold * float64(time.Second)),
		SimTime:     o.Report.SimTime,
		Executed:    o.Report.AnalysisTime,
		Utilization: o.Report.Utilization(res),
		Scheduled:   o.Plan.Rec.TotalAnalyses(),
	}
	for _, kr := range o.Report.Kernels {
		out.Analyses += kr.Analyses
	}
	return out, nil
}

// FormatCouplingValidation renders the validation result.
func FormatCouplingValidation(v *CouplingValidation) string {
	return fmt.Sprintf("Coupling validation (real mini-app): threshold %v, sim %v, executed %v (%.1f%% of threshold), %d/%d analyses executed\n",
		v.Threshold, v.SimTime, v.Executed, v.Utilization*100, v.Analyses, v.Scheduled)
}
