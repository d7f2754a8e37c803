package core

import (
	"testing"
)

func placementRes() PlacementResources {
	return PlacementResources{
		Resources: Resources{
			Steps:         1000,
			TimeThreshold: 30,
			MemThreshold:  8 << 30,
		},
		NetBandwidth:   2e9,
		StageMemTotal:  64 << 30,
		StageTimeTotal: 2000,
	}
}

func TestPlacementOffloadsExpensiveAnalysis(t *testing.T) {
	// An analysis too expensive to run in-situ within the threshold, but
	// with a small transfer footprint, must move to co-analysis.
	specs := []PlacementSpec{
		{
			AnalysisSpec:  AnalysisSpec{Name: "heavy", CT: 20, MinInterval: 100},
			TransferBytes: 1 << 30, // 0.5 s per transfer at 2 GB/s
		},
		{
			AnalysisSpec: AnalysisSpec{Name: "cheap", CT: 0.05, MinInterval: 100},
		},
	}
	rec, err := SolvePlacement(specs, placementRes(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	heavy := rec.Schedule("heavy")
	if heavy.Site != CoAnalysis {
		t.Fatalf("heavy analysis site = %v, want co-analysis", heavy.Site)
	}
	if heavy.Count != 10 {
		t.Fatalf("offloaded analysis count = %d, want 10 (transfers are cheap)", heavy.Count)
	}
	// The cheap analysis transfers nothing, so either site runs it ten
	// times at no cost to the other: which of the two tied optima comes
	// back is the search's business, the count and the objective are the
	// model's.
	if cheap := rec.Schedule("cheap"); cheap.Count != 10 {
		t.Fatalf("cheap analysis: site=%v count=%d, want x10", cheap.Site, cheap.Count)
	}
	if rec.Objective != 22 {
		t.Fatalf("objective = %g, want 22 (two analyses, ten steps each)", rec.Objective)
	}
	if rec.SimSiteTime > 30 {
		t.Fatalf("sim-site time %g over threshold", rec.SimSiteTime)
	}
	if rec.StageTime <= 0 {
		t.Fatal("staging resource unused despite offload")
	}
}

func TestPlacementPrefersInSituWhenTransferDominates(t *testing.T) {
	// §1: "it is faster in some cases to analyze in-situ than to transfer
	// the simulation output and auxiliary data structures to remote
	// memory". A cheap analysis with a huge transfer must stay in-situ.
	specs := []PlacementSpec{{
		AnalysisSpec:  AnalysisSpec{Name: "local", CT: 0.1, MinInterval: 100},
		TransferBytes: 100 << 30, // 50 s per transfer
	}}
	rec, err := SolvePlacement(specs, placementRes(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := rec.Schedule("local")
	if s.Site != InSitu {
		t.Fatalf("site = %v, want in-situ (transfer dominates)", s.Site)
	}
	if s.Count != 10 {
		t.Fatalf("count = %d, want 10", s.Count)
	}
}

func TestPlacementStagingMemoryGate(t *testing.T) {
	// Offload requires staging memory; with none available the heavy
	// analysis cannot be placed anywhere and is dropped.
	res := placementRes()
	res.StageMemTotal = 1 // effectively zero
	specs := []PlacementSpec{{
		// CT beyond the 30 s simulation-site threshold: in-situ impossible.
		AnalysisSpec:  AnalysisSpec{Name: "heavy", CT: 40, FM: 1 << 30, MinInterval: 100},
		TransferBytes: 1 << 30,
	}}
	rec, err := SolvePlacement(specs, res, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Schedule("heavy").Enabled {
		t.Fatal("heavy analysis should be unschedulable without staging memory")
	}
}

func TestPlacementStagingTimeGate(t *testing.T) {
	res := placementRes()
	res.StageTimeTotal = 45 // only one 40-second analysis fits on staging
	specs := []PlacementSpec{{
		// In-situ impossible (40 > 30 s threshold); staging fits exactly one.
		AnalysisSpec:  AnalysisSpec{Name: "heavy", CT: 40, MinInterval: 100},
		TransferBytes: 1 << 30,
	}}
	rec, err := SolvePlacement(specs, res, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := rec.Schedule("heavy")
	if s.Site != CoAnalysis || s.Count != 1 {
		t.Fatalf("site=%v count=%d, want co-analysis x1 under the staging time gate", s.Site, s.Count)
	}
}

func TestPlacementValidation(t *testing.T) {
	res := placementRes()
	res.NetBandwidth = 0
	if _, err := SolvePlacement(nil, res, SolveOptions{}); err == nil {
		t.Fatal("expected bandwidth validation error")
	}
	res = placementRes()
	bad := []PlacementSpec{{AnalysisSpec: AnalysisSpec{Name: "", CT: 1}}}
	if _, err := SolvePlacement(bad, res, SolveOptions{}); err == nil {
		t.Fatal("expected spec validation error")
	}
	res.StageMemTotal = -1
	if _, err := SolvePlacement(nil, res, SolveOptions{}); err == nil {
		t.Fatal("expected staging validation error")
	}
}

func TestPlacementMatchesSolveWhenNoStaging(t *testing.T) {
	// With transfers priced prohibitively, SolvePlacement degenerates to
	// Solve's in-situ objective.
	specs := fourAnalyses()
	pSpecs := make([]PlacementSpec, len(specs))
	for i, a := range specs {
		pSpecs[i] = PlacementSpec{AnalysisSpec: a, TransferBytes: 1 << 50}
	}
	res := placementRes()
	res.TimeThreshold = 64.69
	res.MemThreshold = 12 << 30
	prec, err := SolvePlacement(pSpecs, res, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Solve(specs, res.Resources, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if prec.Objective != rec.Objective {
		t.Fatalf("placement objective %g != in-situ objective %g", prec.Objective, rec.Objective)
	}
	for _, s := range prec.Schedules {
		if s.Enabled && s.Site != InSitu {
			t.Fatalf("%s placed %v despite prohibitive transfer", s.Name, s.Site)
		}
	}
}

func TestPlacementDominatesInSituOnly(t *testing.T) {
	// Adding the co-analysis option can only improve the objective.
	specs := fourAnalyses()
	pSpecs := make([]PlacementSpec, len(specs))
	for i, a := range specs {
		pSpecs[i] = PlacementSpec{AnalysisSpec: a, TransferBytes: 256 << 20}
	}
	res := placementRes()
	res.TimeThreshold = 32.34
	res.MemThreshold = 12 << 30
	prec, err := SolvePlacement(pSpecs, res, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Solve(specs, res.Resources, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if prec.Objective < rec.Objective {
		t.Fatalf("placement objective %g below in-situ-only %g", prec.Objective, rec.Objective)
	}
	if prec.Schedule("missing") != nil {
		t.Fatal("unknown schedule should be nil")
	}
}

func TestSiteString(t *testing.T) {
	if InSitu.String() != "in-situ" || CoAnalysis.String() != "co-analysis" {
		t.Fatal("site names wrong")
	}
	if Site(9).String() == "" {
		t.Fatal("unknown site should print")
	}
}
