package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"insitu/internal/analysis/mdkernels"
	"insitu/internal/core"
	"insitu/internal/iosim"
	"insitu/internal/sim/md"
	"insitu/internal/trajectory"
)

// ---------------------------------------------------------------------------
// Table 4: post-processing vs in-situ MSD.
// ---------------------------------------------------------------------------

// Table4Row compares the post-processing and in-situ paths for one system
// size, all measured on the real mini-app in this repository.
type Table4Row struct {
	Atoms       int
	ReadTime    time.Duration // time to read the trajectory back from disk
	PostProcess time.Duration // serial MSD over the frames read back
	InSitu      time.Duration // in-situ MSD during the simulation
}

// Table4Config sizes the experiment; the paper ran 1000 steps with output
// every 100 — at laptop scale the defaults shrink both proportionally.
type Table4Config struct {
	Atoms       []int // system sizes (default paper's 12544 and a scaled second size)
	Steps       int   // simulation steps (default 120)
	OutputEvery int   // trajectory/analysis cadence (default 20)
	Dir         string
}

func (c Table4Config) withDefaults() Table4Config {
	if len(c.Atoms) == 0 {
		c.Atoms = []int{12544, 50176}
	}
	if c.Steps == 0 {
		c.Steps = 120
	}
	if c.OutputEvery == 0 {
		c.OutputEvery = 20
	}
	if c.Dir == "" {
		c.Dir = os.TempDir()
	}
	return c
}

// Table4 runs the simulation twice per system size: once writing a
// trajectory (the post-processing path then reads it back and analyzes
// serially) and once analyzing MSD in-situ.
func Table4(cfg Table4Config) ([]Table4Row, error) {
	cfg = cfg.withDefaults()
	var rows []Table4Row
	for _, atoms := range cfg.Atoms {
		row, err := table4One(atoms, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func table4One(atoms int, cfg Table4Config) (Table4Row, error) {
	row := Table4Row{Atoms: atoms}

	// Pass 1: simulate and dump trajectory frames.
	sys, err := md.NewWaterIons(md.Config{NAtoms: atoms, Seed: 11})
	if err != nil {
		return row, err
	}
	path := filepath.Join(cfg.Dir, fmt.Sprintf("table4-%d.traj", atoms))
	defer os.Remove(path)
	w, err := trajectory.NewWriter(path, atoms)
	if err != nil {
		return row, err
	}
	for s := 1; s <= cfg.Steps; s++ {
		sys.Step(0.002)
		if s%cfg.OutputEvery == 0 {
			if err := w.WriteFrame(int64(s), sys.Frame()); err != nil {
				return row, err
			}
		}
	}
	if err := w.Close(); err != nil {
		return row, err
	}

	// Post-processing path: read the trajectory back, then compute MSD
	// serially against the first frame (the paper's "serial custom
	// post-processing tool").
	t0 := time.Now()
	r, err := trajectory.OpenReader(path)
	if err != nil {
		return row, err
	}
	var frames [][]float32
	for {
		_, data, err := r.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			r.Close()
			return row, err
		}
		frames = append(frames, data)
	}
	r.Close()
	row.ReadTime = time.Since(t0)

	t1 := time.Now()
	if len(frames) > 0 {
		ref := frames[0]
		for _, f := range frames[1:] {
			sum := 0.0
			for i := 0; i < atoms; i++ {
				dx := float64(f[6*i] - ref[6*i])
				dy := float64(f[6*i+1] - ref[6*i+1])
				dz := float64(f[6*i+2] - ref[6*i+2])
				sum += dx*dx + dy*dy + dz*dz
			}
			_ = sum / float64(atoms)
		}
	}
	row.PostProcess = time.Since(t1)

	// In-situ path: fresh simulation with the MSD kernel embedded.
	sys2, err := md.NewWaterIons(md.Config{NAtoms: atoms, Seed: 11})
	if err != nil {
		return row, err
	}
	msd, err := mdkernels.NewMSD(sys2, 4)
	if err != nil {
		return row, err
	}
	if _, err := msd.Setup(); err != nil {
		return row, err
	}
	for s := 1; s <= cfg.Steps; s++ {
		sys2.Step(0.002)
		if s%cfg.OutputEvery == 0 {
			t2 := time.Now()
			if _, err := msd.Analyze(s); err != nil {
				return row, err
			}
			row.InSitu += time.Since(t2)
		}
	}
	return row, nil
}

// FormatTable4 renders rows in the paper's layout.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: MSD analysis time, post-processing vs in-situ\n")
	fmt.Fprintf(&b, "%-12s %-14s %-20s %-16s\n", "atoms", "read (s)", "post-process (s)", "in-situ (s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12d %-14.4f %-20.4f %-16.4f\n",
			r.Atoms, r.ReadTime.Seconds(), r.PostProcess.Seconds(), r.InSitu.Seconds())
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 5: threshold (% of simulation time) sweep for water+ions.
// ---------------------------------------------------------------------------

// Table5Row is one threshold setting of Table 5.
type Table5Row struct {
	Percent   float64
	Threshold float64 // seconds
	Counts    [4]int  // A1..A4 frequencies
	// ExecutedTime is the modeled executed analyses time (paper column 6).
	ExecutedTime float64
	// WithinPct is ExecutedTime/Threshold x 100 (paper column 7).
	WithinPct float64
	SolveTime time.Duration
}

// Table5 sweeps the threshold over 20/10/5/1% of the 100M-atom simulation
// time on 16384 ranks, solving the scheduling MILP for each. The §5.3.2 run
// took 646.78 s for 1000 steps, so the thresholds are 129.35, 64.69, 32.34,
// and 6.46 s.
func Table5() ([]Table5Row, error) {
	const ranks = 16384
	const simPerStep = 646.78 / 1000
	specs := WaterIonsSpecs(ranks)
	var rows []Table5Row
	for _, pct := range []float64{20, 10, 5, 1} {
		res := core.Resources{
			Steps:         1000,
			TimeThreshold: core.PercentThreshold(simPerStep, 1000, pct),
			MemThreshold:  12 << 30,
		}
		rec, err := core.Solve(specs, res, core.SolveOptions{})
		if err != nil {
			return nil, fmt.Errorf("table5 pct=%g: %w", pct, err)
		}
		row := Table5Row{Percent: pct, Threshold: res.TimeThreshold, SolveTime: rec.SolveTime}
		for i, s := range specs {
			c := rec.Schedule(s.Name).Count
			row.Counts[i] = c
			row.ExecutedTime += WaterIonsExecutedCost(s.Name, ranks) * float64(c)
		}
		row.WithinPct = row.ExecutedTime / res.TimeThreshold * 100
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable5 renders rows in the paper's layout.
func FormatTable5(rows []Table5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: threshold sweep, 100M-atom water+ions, 16384 ranks, 1000 steps\n")
	fmt.Fprintf(&b, "%-18s %-5s %-5s %-5s %-5s %-16s %-14s\n",
		"threshold% (s)", "A1", "A2", "A3", "A4", "analyses t (s)", "% within thr")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-3.0f (%-10.2f)  %-5d %-5d %-5d %-5d %-16.2f %-14.2f\n",
			r.Percent, r.Threshold, r.Counts[0], r.Counts[1], r.Counts[2], r.Counts[3],
			r.ExecutedTime, r.WithinPct)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 6: total-threshold sweep for rhodopsin.
// ---------------------------------------------------------------------------

// Table6Row is one total-threshold setting of Table 6.
type Table6Row struct {
	Threshold float64
	Counts    [3]int // R1..R3
	WithinPct float64
	SolveTime time.Duration
}

// Table6 sweeps the user-specified total threshold for the 1B-atom
// rhodopsin problem on 32768 ranks.
func Table6() ([]Table6Row, error) {
	specs := RhodopsinSpecs()
	var rows []Table6Row
	for _, th := range []float64{200, 100, 60, 20, 10} {
		res := core.Resources{Steps: 1000, TimeThreshold: th, MemThreshold: 12 << 30}
		rec, err := core.Solve(specs, res, core.SolveOptions{})
		if err != nil {
			return nil, fmt.Errorf("table6 th=%g: %w", th, err)
		}
		row := Table6Row{Threshold: th, SolveTime: rec.SolveTime}
		for i, s := range specs {
			row.Counts[i] = rec.Schedule(s.Name).Count
		}
		row.WithinPct = rec.TotalTime / th * 100
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable6 renders rows in the paper's layout.
func FormatTable6(rows []Table6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 6: total threshold sweep, 1B-atom rhodopsin, 32768 ranks, 1000 steps\n")
	fmt.Fprintf(&b, "%-18s %-5s %-5s %-5s %-14s\n", "threshold (s)", "R1", "R2", "R3", "% within thr")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18.0f %-5d %-5d %-5d %-14.2f\n",
			r.Threshold, r.Counts[0], r.Counts[1], r.Counts[2], r.WithinPct)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 7: trading simulation-output time for analysis threshold.
// ---------------------------------------------------------------------------

// Table7Row is one simulation-output setting of Table 7.
type Table7Row struct {
	OutputTime  float64 // total simulation output time (s)
	Threshold   float64 // analysis threshold (s)
	NumAnalyses int     // total feasible analyses
}

// Table7 reproduces the §5.3.5 trade: the user halves the simulation output
// frequency, and the saved output time is granted to the analysis threshold
// (the row sums are constant at 250.6 s). Each row re-solves the rhodopsin
// schedule with the enlarged threshold.
func Table7() ([]Table7Row, error) {
	specs := RhodopsinSpecs()
	const budget = RhodopsinOutputSeconds + 50 // 250.6 s: fixed output+analysis budget
	var rows []Table7Row
	outTime := RhodopsinOutputSeconds
	for i := 0; i < 3; i++ {
		th := budget - outTime
		res := core.Resources{Steps: 1000, TimeThreshold: th, MemThreshold: 12 << 30}
		rec, err := core.Solve(specs, res, core.SolveOptions{})
		if err != nil {
			return nil, fmt.Errorf("table7 out=%g: %w", outTime, err)
		}
		rows = append(rows, Table7Row{
			OutputTime:  outTime,
			Threshold:   th,
			NumAnalyses: rec.TotalAnalyses(),
		})
		outTime /= 2
	}
	return rows, nil
}

// Table7NVRAM extends the §5.3.5 what-if ("decrease in output time is also
// possible by using a higher bandwidth storage like NVRAM"): the same ten
// 91 GB outputs go to a burst buffer instead of GPFS, the saved time raises
// the analysis threshold, and the solver packs in more analyses.
func Table7NVRAM() (Table7Row, error) {
	bb := iosim.NewBurstBuffer()
	outTime := bb.SustainedOutputTime(RhodopsinOutputBytes, 10, 500*time.Second).Seconds()
	th := RhodopsinOutputSeconds + 50 - outTime
	res := core.Resources{Steps: 1000, TimeThreshold: th, MemThreshold: 12 << 30}
	rec, err := core.Solve(RhodopsinSpecs(), res, core.SolveOptions{})
	if err != nil {
		return Table7Row{}, err
	}
	return Table7Row{OutputTime: outTime, Threshold: th, NumAnalyses: rec.TotalAnalyses()}, nil
}

// FormatTable7 renders rows in the paper's layout.
func FormatTable7(rows []Table7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 7: simulation output time vs analysis threshold, 1B-atom rhodopsin\n")
	fmt.Fprintf(&b, "%-18s %-16s %-14s\n", "output time (s)", "threshold (s)", "# analyses")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18.1f %-16.1f %-14d\n", r.OutputTime, r.Threshold, r.NumAnalyses)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 8: analysis importance (weights) for FLASH.
// ---------------------------------------------------------------------------

// Table8Row is one weight assignment of Table 8. Counts holds the
// lexicographic-priority solution (which reproduces the paper's rows
// exactly); CountsLinear holds the linear-objective |A| + Σ w|C| solution
// for comparison.
type Table8Row struct {
	Label        string
	Weights      [3]float64
	Counts       [3]int // F1..F3 frequencies, priority semantics (paper match)
	CountsLinear [3]int // F1..F3 frequencies, linear-weight semantics
}

// Table8 solves the FLASH Sedov schedule under the two §5.3.6 weight
// assignments, I1 = (1,1,1) and I2 = (2,1,2), with a 5% threshold of the
// 870 s simulation (43.5 s). The paper's I2 row (F1=5, F2=0, F3=10) is
// dominated under a linear objective by the I1 schedule (which stays
// feasible — feasibility is weight-independent), so the paper's "importance"
// must act as a strict priority: SolveLexicographic reproduces both rows
// exactly, and the linear-objective counts are reported alongside.
func Table8() ([]Table8Row, error) {
	threshold := core.PercentThreshold(FlashSimSecPerStep, 1000, 5)
	res := core.Resources{Steps: 1000, TimeThreshold: threshold, MemThreshold: 12 << 30}
	var rows []Table8Row
	for _, w := range []struct {
		label   string
		weights [3]float64
	}{
		{"I1", [3]float64{1, 1, 1}},
		{"I2", [3]float64{2, 1, 2}},
	} {
		specs := FlashSpecs()
		for i := range specs {
			specs[i].Weight = w.weights[i]
		}
		lex, err := core.SolveLexicographic(specs, res, core.SolveOptions{})
		if err != nil {
			return nil, fmt.Errorf("table8 %s (lexicographic): %w", w.label, err)
		}
		lin, err := core.Solve(specs, res, core.SolveOptions{})
		if err != nil {
			return nil, fmt.Errorf("table8 %s (linear): %w", w.label, err)
		}
		row := Table8Row{Label: w.label, Weights: w.weights}
		for i, s := range specs {
			row.Counts[i] = lex.Schedule(s.Name).Count
			row.CountsLinear[i] = lin.Schedule(s.Name).Count
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable8 renders rows in the paper's layout.
func FormatTable8(rows []Table8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 8: FLASH Sedov analysis frequencies under importance weights (5%% threshold)\n")
	fmt.Fprintf(&b, "%-6s %-12s %-22s %-22s\n", "run", "weights", "priority (paper)", "linear objective")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s (%g,%g,%g)%4s F1=%-3d F2=%-3d F3=%-6d F1=%-3d F2=%-3d F3=%-3d\n",
			r.Label, r.Weights[0], r.Weights[1], r.Weights[2], "",
			r.Counts[0], r.Counts[1], r.Counts[2],
			r.CountsLinear[0], r.CountsLinear[1], r.CountsLinear[2])
	}
	return b.String()
}
