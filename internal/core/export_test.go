package core

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"insitu/internal/milp"
)

func TestExportLPContainsModel(t *testing.T) {
	specs := fourAnalyses()
	res := Resources{Steps: 1000, TimeThreshold: 64.69, MemThreshold: 12 << 30}
	var buf bytes.Buffer
	if err := ExportLP(&buf, specs, res, SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Maximize", "time_threshold", "memory_threshold",
		"one_mode(A1)", "one_mode(A4)", "x(A4_n_1_k_1)", "Generals", "End",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exported LP missing %q", want)
		}
	}
	if strings.Count(out, "\n") < 50 {
		t.Fatalf("exported model suspiciously small:\n%s", out)
	}
}

// TestExportLPRoundTripKeepsClasses: the one-mode rows the compact model
// declares come back from the LP file as the same declaration.
func TestExportLPRoundTripKeepsClasses(t *testing.T) {
	specs := fourAnalyses()
	res := Resources{Steps: 1000, TimeThreshold: 64.69, MemThreshold: 12 << 30}
	var buf bytes.Buffer
	if err := ExportLP(&buf, specs, res, SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	q, err := milp.ReadLP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.LP.Classes != len(specs) || len(q.LP.Constraints) != len(specs)+2 {
		t.Fatalf("reread %d classes over %d rows, want %d over %d", q.LP.Classes, len(q.LP.Constraints), len(specs), len(specs)+2)
	}
}

// TestExportLPRoundTripNoModes: when Steps is below every MinInterval no
// analysis has a mode, the model has no columns and no rows, and the LP file
// reads back as just that.
func TestExportLPRoundTripNoModes(t *testing.T) {
	specs := []AnalysisSpec{
		{Name: "A1", CT: 1, MinInterval: 20},
		{Name: "A2", CT: 2, MinInterval: 30},
	}
	res := Resources{Steps: 10, TimeThreshold: 5}
	var buf bytes.Buffer
	if err := ExportLP(&buf, specs, res, SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	q, err := milp.ReadLP(&buf)
	if err != nil {
		t.Fatalf("ReadLP: %v\n%s", err, text)
	}
	if n, m := q.LP.NumVars(), len(q.LP.Constraints); n != 0 || m != 0 {
		t.Fatalf("reread %d columns and %d rows, want none:\n%s", n, m, text)
	}
}

func TestExportLPValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := ExportLP(&buf, nil, Resources{}, SolveOptions{}); err == nil {
		t.Fatal("expected resources error")
	}
	if err := ExportLP(&buf, []AnalysisSpec{{Name: ""}}, Resources{Steps: 10, TimeThreshold: 1}, SolveOptions{}); err == nil {
		t.Fatal("expected spec error")
	}
}

func TestThresholdSensitivityA4(t *testing.T) {
	// At the Table-5 10% threshold, A4 runs twice; the next A4 step needs
	// roughly one more 25.9 s slot. The bisection must land near the exact
	// crossing: 3x25.85 + 0.05 + A1-A3 costs.
	specs := []AnalysisSpec{
		{Name: "A4", CT: 25.85, OT: 0.05, MinInterval: 100},
	}
	res := Resources{Steps: 1000, TimeThreshold: 64.69}
	out, err := AnalyzeThresholdSensitivity(specs, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("entries = %d", len(out))
	}
	s := out[0]
	if s.CurrentCount != 2 {
		t.Fatalf("current count = %d, want 2", s.CurrentCount)
	}
	want := 3*25.85 + 0.05
	if math.Abs(s.NextThreshold-want) > 0.1 {
		t.Fatalf("next threshold = %g, want ~%g", s.NextThreshold, want)
	}
}

func TestThresholdSensitivitySaturated(t *testing.T) {
	// An analysis already at its interval-bound maximum can never gain a
	// step: the sensitivity must be +Inf.
	specs := []AnalysisSpec{{Name: "cheap", CT: 0.001, MinInterval: 100}}
	res := Resources{Steps: 1000, TimeThreshold: 1}
	out, err := AnalyzeThresholdSensitivity(specs, res)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].CurrentCount != 10 {
		t.Fatalf("count = %d", out[0].CurrentCount)
	}
	if !math.IsInf(out[0].NextThreshold, 1) {
		t.Fatalf("next threshold = %g, want +Inf", out[0].NextThreshold)
	}
}

// TestThresholdSensitivityWorkers pins the fan-out contract: probing the
// analyses on one GOMAXPROCS worker or on two returns the same frontier, in
// the same order.
func TestThresholdSensitivityWorkers(t *testing.T) {
	specs := []AnalysisSpec{
		{Name: "A1", CT: 1.5, OT: 0.25, MinInterval: 4},
		{Name: "A2", CT: 4.0, MinInterval: 6},
		{Name: "A3", CT: 0.5, OT: 0.5, MinInterval: 3},
	}
	res := Resources{Steps: 36, TimeThreshold: 12}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial, err := AnalyzeThresholdSensitivity(specs, res)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(2)
	par, err := AnalyzeThresholdSensitivity(specs, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(serial) {
		t.Fatalf("got %d entries at GOMAXPROCS 2, %d at 1", len(par), len(serial))
	}
	for i := range par {
		if par[i] != serial[i] {
			t.Fatalf("entry %d: %+v at GOMAXPROCS 2, %+v at 1", i, par[i], serial[i])
		}
	}
}

func TestThresholdSensitivityValidation(t *testing.T) {
	if _, err := AnalyzeThresholdSensitivity(nil, Resources{Steps: 10}); err == nil {
		t.Fatal("expected threshold error")
	}
}

func TestExportFullLP(t *testing.T) {
	specs := []AnalysisSpec{
		{Name: "p", CT: 1, OT: 0.5, FM: 1 << 20, IM: 1 << 18, MinInterval: 3},
	}
	res := Resources{Steps: 8, TimeThreshold: 5, MemThreshold: 16 << 20}
	var buf bytes.Buffer
	if err := ExportFullLP(&buf, specs, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Maximize", "a(p_1)", "a(p_8)", "o(p_4)", "mS(p_3)", "mE(p_3)",
		"time_threshold", "mem(5)", "member(p)", "Generals", "End",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("full LP missing %q", want)
		}
	}
	if err := ExportFullLP(&buf, specs, Resources{}); err == nil {
		t.Fatal("expected resources error")
	}
	if err := ExportFullLP(&buf, []AnalysisSpec{{Name: ""}}, res); err == nil {
		t.Fatal("expected spec error")
	}
}
