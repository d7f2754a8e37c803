package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"insitu/internal/core"
	"insitu/internal/replan"
	"insitu/internal/runmon"
	"insitu/internal/scenario"
)

// GoldenSnapshot is one named, deterministic projection of an experiment's
// output, serialized to testdata/golden/<name>.json by the regression
// harness. Solver-driven experiments snapshot their full row sets (with
// wall-clock fields zeroed); measured, machine-dependent experiments
// snapshot their configuration and kernel rosters instead, so the snapshot
// pins *what runs* without pinning timings that vary across hosts.
type GoldenSnapshot struct {
	Name string
	Data any
}

// GoldenSnapshots regenerates every snapshot. All entries are pure functions
// of the paper's published inputs: re-running on any host must produce
// byte-identical JSON, which is what the golden test asserts.
func GoldenSnapshots() ([]GoldenSnapshot, error) {
	var snaps []GoldenSnapshot
	add := func(name string, data any, err error) error {
		if err != nil {
			return fmt.Errorf("golden %s: %w", name, err)
		}
		snaps = append(snaps, GoldenSnapshot{Name: name, Data: data})
		return nil
	}

	t5, err := Table5()
	for i := range t5 {
		t5[i].SolveTime = 0
	}
	if err := add("table5", t5, err); err != nil {
		return nil, err
	}

	t6, err := Table6()
	for i := range t6 {
		t6[i].SolveTime = 0
	}
	if err := add("table6", t6, err); err != nil {
		return nil, err
	}

	t7, err := Table7()
	if err == nil {
		var nvram Table7Row
		if nvram, err = Table7NVRAM(); err == nil {
			t7 = append(t7, nvram)
		}
	}
	if err := add("table7", t7, err); err != nil {
		return nil, err
	}

	t8, err := Table8()
	if err := add("table8", t8, err); err != nil {
		return nil, err
	}

	f5, err := Figure5()
	if err := add("figure5", f5, err); err != nil {
		return nil, err
	}

	ms, err := MemorySweep()
	if err := add("memory_sweep", ms, err); err != nil {
		return nil, err
	}

	if err := add("profiles", profilesSnapshot(), nil); err != nil {
		return nil, err
	}

	roster, err := figure4Roster()
	if err := add("figure4_roster", roster, err); err != nil {
		return nil, err
	}

	if err := add("measured_configs", measuredConfigs(), nil); err != nil {
		return nil, err
	}

	if err := add("perturbed_runs", perturbedRunsSnapshot(), nil); err != nil {
		return nil, err
	}

	rr, err := replanRunsSnapshot()
	if err := add("replan_runs", rr, err); err != nil {
		return nil, err
	}

	snaps = append(snaps, scenarioSnapshots()...)
	return snaps, nil
}

// scenarioSnapshots pins the paper's scheduling problems serialized in the
// shared scenario file format, so the insitu-sched and schedexplain CLIs have
// committed, drift-checked inputs. The CI schedexplain smoke step runs the
// report CLI over exactly these files.
func scenarioSnapshots() []GoldenSnapshot {
	const simPerStep = 646.78 / 1000 // §5.3.2 run: Table 5's threshold basis
	waterIons := func(pct float64) scenario.Problem {
		return scenario.FromSpecs(WaterIonsSpecs(16384), core.Resources{
			Steps:         1000,
			TimeThreshold: core.PercentThreshold(simPerStep, 1000, pct),
			MemThreshold:  12 << 30,
		})
	}
	return []GoldenSnapshot{
		{Name: "scenario_water_ions_10pct", Data: waterIons(10)},
		{Name: "scenario_water_ions_1pct", Data: waterIons(1)},
		{Name: "scenario_rhodopsin_100s", Data: scenario.FromSpecs(RhodopsinSpecs(),
			core.Resources{Steps: 1000, TimeThreshold: 100, MemThreshold: 12 << 30})},
		{Name: "scenario_flash_43.5s", Data: scenario.FromSpecs(FlashSpecs(),
			core.Resources{Steps: 1000, TimeThreshold: 43.5, MemThreshold: 12 << 30})},
	}
}

// profilesSnapshot pins the paper-derived analysis cost profiles and
// constants that feed every scheduling experiment. A drift here silently
// changes every table, so it gets its own snapshot with the most readable
// diff.
func profilesSnapshot() any {
	executed := map[string]float64{}
	for _, s := range WaterIonsSpecs(16384) {
		executed[s.Name] = WaterIonsExecutedCost(s.Name, 16384)
	}
	return struct {
		WaterIons16384         []core.AnalysisSpec
		WaterIonsExecuted16384 map[string]float64
		WaterIonsSimSecPerStep map[int]float64
		Rhodopsin              []core.AnalysisSpec
		Flash                  []core.AnalysisSpec
		RhodopsinSimSeconds    float64
		RhodopsinOutputSeconds float64
		RhodopsinOutputBytes   int64
		FlashSimSecPerStep     float64
	}{
		WaterIons16384:         WaterIonsSpecs(16384),
		WaterIonsExecuted16384: executed,
		WaterIonsSimSecPerStep: map[int]float64{
			2048:  WaterIonsSimSecPerStep(2048),
			4096:  WaterIonsSimSecPerStep(4096),
			8192:  WaterIonsSimSecPerStep(8192),
			16384: WaterIonsSimSecPerStep(16384),
			32768: WaterIonsSimSecPerStep(32768),
		},
		Rhodopsin:              RhodopsinSpecs(),
		Flash:                  FlashSpecs(),
		RhodopsinSimSeconds:    RhodopsinSimSeconds,
		RhodopsinOutputSeconds: RhodopsinOutputSeconds,
		RhodopsinOutputBytes:   RhodopsinOutputBytes,
		FlashSimSecPerStep:     FlashSimSecPerStep,
	}
}

// perturbedRunsSnapshot pins the perturbed-profile scenario family and the
// drift verdict runmon reaches on each member: the run configurations, the
// one-line detection summary, and every alert (stream, step, detector state)
// at the fixed corpus seed. The synthesis and the detectors are pure seeded
// math, so the snapshot is byte-stable across hosts; a change to either the
// corpus or the CUSUM/EWMA defaults shows up as a readable diff here.
func perturbedRunsSnapshot() any {
	type entry struct {
		Run     runmon.SynthRun `json:"run"`
		Summary string          `json:"summary"`
		Alerts  []runmon.Alert  `json:"alerts"`
	}
	var out []entry
	for _, r := range PerturbedRuns() {
		s := runmon.Analyze(r.Events(), nil, runmon.Config{})
		out = append(out, entry{Run: r, Summary: s.Summary(), Alerts: s.Alerts})
	}
	return out
}

// replanRunsSnapshot pins the closed-loop replan corpus: for every scenario,
// the static and the drift-adaptive run side by side — realized value,
// per-kernel analysis counts, budget accounting, and the full replan decision
// timeline — at the canonical serial solve (the replan determinism test
// proves wider solver pools agree byte for byte). The corpus is pure seeded
// math, so the snapshot is host-stable; a diff here means the scheduler, the
// detectors, or the replan hysteresis changed behavior.
func replanRunsSnapshot() (any, error) {
	type entry struct {
		Scenario replan.Scenario  `json:"scenario"`
		Static   replan.SimResult `json:"static"`
		Adaptive replan.SimResult `json:"adaptive"`
	}
	var out []entry
	for _, sc := range ReplanScenarios() {
		static, err := replan.Simulate(sc, false, 0)
		if err != nil {
			return nil, err
		}
		adaptive, err := replan.Simulate(sc, true, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, entry{Scenario: sc, Static: static, Adaptive: adaptive})
	}
	return out, nil
}

// figure4Roster pins the composition of the Figure-4 kernel set: the ten
// kernel names, in presentation order. Timings and memory are measured and
// host-dependent, so they stay out of the snapshot.
func figure4Roster() ([]string, error) {
	entries, err := Figure4Kernels(0)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Kernel.Name()
	}
	return names, nil
}

// measuredConfigs pins the default configurations of the measured (laptop-
// scale) experiments, whose outputs are wall-clock and therefore not
// snapshot-stable themselves.
func measuredConfigs() any {
	t4 := Table4Config{}.withDefaults()
	t4.Dir = "" // host temp dir, not snapshot-stable
	return struct {
		Table4  Table4Config
		Figure2 Figure2Config
	}{t4, Figure2Config{}.withDefaults()}
}

// goldenJSON renders a snapshot exactly as stored on disk: two-space
// indented JSON with a trailing newline.
func goldenJSON(s GoldenSnapshot) ([]byte, error) {
	b, err := json.MarshalIndent(s.Data, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("golden %s: %w", s.Name, err)
	}
	return append(b, '\n'), nil
}

// WriteGolden regenerates every snapshot file under dir. Both the golden
// test's -update flag and the experiments command's -golden flag route
// through here, so the two always agree on serialization.
func WriteGolden(dir string) error {
	snaps, err := GoldenSnapshots()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, s := range snaps {
		b, err := goldenJSON(s)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, s.Name+".json"), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
