package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"insitu/internal/obs"
	"insitu/internal/perfbench"
)

func TestUsageAndUnknownCommands(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run(nil, &out, &errBuf); code != 2 {
		t.Fatalf("no args -> %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), "usage: benchobs") {
		t.Fatalf("usage missing: %s", errBuf.String())
	}
	if code := run([]string{"nope"}, &out, &errBuf); code != 2 {
		t.Fatal("unknown command accepted")
	}
	out.Reset()
	if code := run([]string{"help"}, &out, &errBuf); code != 0 || !strings.Contains(out.String(), "summarize") {
		t.Fatalf("help -> %d, %s", code, out.String())
	}
	// Bad flag values and bad suite names are usage errors.
	if code := run([]string{"run", "-suite", "nope"}, &out, &errBuf); code != 2 {
		t.Fatal("unknown suite accepted")
	}
	if code := run([]string{"compare", "-suite", "nope", "-current", "x"}, &out, &errBuf); code != 2 {
		t.Fatal("unknown compare suite accepted")
	}
	if code := run([]string{"compare"}, &out, &errBuf); code != 2 {
		t.Fatal("compare without -current accepted")
	}
	if code := run([]string{"summarize"}, &out, &errBuf); code != 2 {
		t.Fatal("summarize without -ledger accepted")
	}
}

func TestRunAndCompareEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick benchmark catalog twice")
	}
	baseDir := t.TempDir()
	var out, errBuf bytes.Buffer
	if code := run([]string{"run", "-quick", "-out", baseDir}, &out, &errBuf); code != 0 {
		t.Fatalf("run -> %d: %s", code, errBuf.String())
	}
	for _, suite := range perfbench.SuiteNames {
		s, err := perfbench.ReadFile(filepath.Join(baseDir, perfbench.BenchFileName(suite)))
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Workloads) == 0 {
			t.Fatalf("suite %s empty", suite)
		}
	}

	// A solver-only re-run compares clean against its own baseline even at
	// slack 1 (deterministic gated metrics; wall gate is wide). wall_ns_min is
	// the one gated metric two quick runs do not reproduce when the other
	// packages' tests share the CPUs, so a re-run whose only regressions are
	// wall_ns_min is repeated; a regression on any other metric fails at once.
	curDir := t.TempDir()
	jsonPath := filepath.Join(curDir, "diff.json")
	var results []perfbench.CompareResult
	for attempt := 1; ; attempt++ {
		if code := run([]string{"run", "-quick", "-suite", "solver", "-out", curDir}, &out, &errBuf); code != 0 {
			t.Fatalf("solver run -> %d: %s", code, errBuf.String())
		}
		out.Reset()
		errBuf.Reset()
		code := run([]string{"compare", "-suite", "solver", "-baseline", baseDir, "-current", curDir, "-json", jsonPath}, &out, &errBuf)
		data, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &results); err != nil {
			t.Fatal(err)
		}
		if len(results) != 1 || results[0].Suite != "solver" || len(results[0].Deltas) == 0 {
			t.Fatalf("machine diff = %+v", results)
		}
		if code == 0 {
			break
		}
		regs := results[0].Regressions()
		retry := len(regs) > 0 && attempt < 3
		for _, d := range regs {
			retry = retry && d.Metric == "wall_ns_min"
		}
		if !retry {
			t.Fatalf("compare -> %d (attempt %d):\n%s\n%s", code, attempt, out.String(), errBuf.String())
		}
	}
	if !strings.Contains(out.String(), "no regressions") {
		t.Fatalf("table = %s", out.String())
	}

	// Poison a deterministic counter in the current run: compare must fail.
	cur, err := perfbench.ReadFile(filepath.Join(curDir, perfbench.BenchFileName("solver")))
	if err != nil {
		t.Fatal(err)
	}
	m := cur.Workload("placement_waterions").Metric("solver_nodes_per_op")
	if m == nil {
		t.Fatal("no solver_nodes_per_op on placement_waterions")
	}
	m.Value *= 2
	if err := cur.WriteFile(filepath.Join(curDir, perfbench.BenchFileName("solver"))); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errBuf.Reset()
	code := run([]string{"compare", "-suite", "solver", "-baseline", baseDir, "-current", curDir}, &out, &errBuf)
	if code != 1 {
		t.Fatalf("poisoned compare -> %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL") || !strings.Contains(errBuf.String(), "regression(s)") {
		t.Fatalf("poisoned compare output:\n%s\n%s", out.String(), errBuf.String())
	}

	// Missing baseline directory is a usage error, not a pass.
	if code := run([]string{"compare", "-baseline", filepath.Join(baseDir, "absent"), "-current", curDir}, &out, &errBuf); code != 2 {
		t.Fatalf("absent baseline -> %d", code)
	}
}

func TestServeLoopFeedsRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	if err := serveLoop(context.Background(), reg, 1); err != nil {
		t.Fatal(err)
	}
	var steps float64
	for _, m := range reg.Snapshot() {
		if m.Name == "coupling_steps_total" {
			steps = m.Value
		}
	}
	if steps != 240 {
		t.Fatalf("steps_total = %g after one pipeline run, want 240", steps)
	}
	// A pre-canceled context still completes the in-flight run, then exits.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := serveLoop(canceled, reg, 0); err != nil {
		t.Fatal(err)
	}
}

// TestRunServeGracefulShutdown boots the serve stack on a real listener,
// scrapes it once, then cancels the context and requires runServe to drain
// the workload loop and return cleanly — the SIGINT/SIGTERM path without the
// signal.
func TestRunServeGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var out, errBuf bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- runServe(ctx, ln, &out, &errBuf)
	}()

	url := fmt.Sprintf("http://%s/metrics", ln.Addr())
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.Contains(string(body), "coupling_steps_total") {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics endpoint never came up: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("runServe exit %d, stderr:\n%s", code, errBuf.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("runServe did not shut down after cancellation")
	}
}

func TestSummarize(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	led, err := obs.OpenEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	led.Append(obs.LedgerEvent{Type: obs.LedgerRunStart, Name: "mdsim", Args: map[string]float64{"steps": 2}})
	led.Append(obs.LedgerEvent{Type: obs.LedgerSolve, Name: "plan", Dur: 12, Args: map[string]float64{"nodes": 5, "pivots": 40, "objective": 21}})
	led.Event(obs.LedgerStep, "", 1, 100*time.Microsecond)
	led.Event(obs.LedgerAnalysis, "rdf", 1, 30*time.Microsecond)
	led.Event(obs.LedgerStep, "", 2, 110*time.Microsecond)
	led.Append(obs.LedgerEvent{Type: obs.LedgerOutput, Name: "rdf", Step: 2, Dur: 9, Bytes: 4096})
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	var out, errBuf bytes.Buffer
	if code := run([]string{"summarize", "-ledger", path}, &out, &errBuf); code != 0 {
		t.Fatalf("summarize -> %d: %s", code, errBuf.String())
	}
	text := out.String()
	for _, want := range []string{"run: mdsim", "solve plan", "rdf/analyze 30us", "rdf/output 9us", "total step time: 210 us"} {
		if !strings.Contains(text, want) {
			t.Fatalf("summary missing %q:\n%s", want, text)
		}
	}
	if code := run([]string{"summarize", "-ledger", filepath.Join(dir, "absent.jsonl")}, &out, &errBuf); code != 1 {
		t.Fatal("absent ledger accepted")
	}
	// An empty ledger file is a one-line error, not a bogus empty table.
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	errBuf.Reset()
	if code := run([]string{"summarize", "-ledger", empty}, &out, &errBuf); code != 1 {
		t.Fatalf("empty ledger -> %d, want 1", code)
	}
	if !strings.Contains(errBuf.String(), "no events") {
		t.Fatalf("stderr = %q", errBuf.String())
	}
}

// TestCheckGatesOnWorkers covers the check subcommand: a suite recording the
// parallel width passes, one downgraded to serial fails, and a suite with no
// solver_workers metadata at all fails the -min-count floor.
func TestCheckGatesOnWorkers(t *testing.T) {
	dir := t.TempDir()
	suite := perfbench.Suite{Suite: "solver", Workloads: []perfbench.WorkloadResult{
		{Name: "sched_a", Metrics: []perfbench.Metric{
			{Name: "solver_workers", Value: 8, Unit: "model"},
		}},
		{Name: "micro_no_solver", Metrics: []perfbench.Metric{
			{Name: "wall_ns_min", Value: 1, Unit: "ns/op"},
		}},
	}}
	path := filepath.Join(dir, perfbench.BenchFileName("solver"))
	if err := suite.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"check", "-dir", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("parallel suite: exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "sched_a") || !strings.Contains(stdout.String(), "ok") {
		t.Errorf("check output missing audit line:\n%s", stdout.String())
	}

	// WriteFile sorts the workload slice in place, so locate by name.
	suite.Workload("sched_a").Metric("solver_workers").Value = 1 // silently serial
	if err := suite.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"check", "-dir", dir}, &stdout, &stderr); code != 1 {
		t.Fatalf("serial suite: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "below 2 workers") {
		t.Errorf("stderr = %q", stderr.String())
	}

	suite.Workloads = []perfbench.WorkloadResult{*suite.Workload("micro_no_solver")} // no solver_workers anywhere
	if err := suite.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := run([]string{"check", "-dir", dir}, &stdout, &stderr); code != 1 {
		t.Fatalf("empty suite: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "want >= 1") {
		t.Errorf("stderr = %q", stderr.String())
	}

	if code := run([]string{"check", "-dir", t.TempDir()}, &stdout, &stderr); code != 1 {
		t.Fatal("missing file must fail")
	}
}

// TestCheckGatesOnFallbackRatio covers the warm-resolve health gate: a suite
// whose warm re-solves mostly stick passes, one whose fallback fraction
// exceeds -max-fallback-ratio fails, and the flag moves the bar.
func TestCheckGatesOnFallbackRatio(t *testing.T) {
	dir := t.TempDir()
	suite := perfbench.Suite{Suite: "solver", Workloads: []perfbench.WorkloadResult{
		{Name: "sched_warm", Metrics: []perfbench.Metric{
			{Name: "solver_workers", Value: 8, Unit: "model"},
			{Name: "warm_solves", Value: 95, Unit: "model"},
			{Name: "fallback_colds", Value: 5, Unit: "model"},
		}},
	}}
	path := filepath.Join(dir, perfbench.BenchFileName("solver"))
	if err := suite.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"check", "-dir", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("healthy warm ratio: exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "fallback_ratio=0.050") {
		t.Errorf("check output missing fallback ratio:\n%s", stdout.String())
	}

	suite.Workload("sched_warm").Metric("fallback_colds").Value = 40 // warm starts rotting
	if err := suite.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"check", "-dir", dir}, &stdout, &stderr); code != 1 {
		t.Fatalf("rotten warm ratio: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "fallback ratio") {
		t.Errorf("stderr = %q", stderr.String())
	}

	// A raised bar admits the same suite.
	stderr.Reset()
	if code := run([]string{"check", "-dir", dir, "-max-fallback-ratio", "0.5"}, &stdout, &stderr); code != 0 {
		t.Fatalf("raised bar: exit %d, stderr: %s", code, stderr.String())
	}
}

// TestCheckCommittedBaseline audits the repo's committed solver baseline the
// same way CI does: it must already record the parallel pool width.
func TestCheckCommittedBaseline(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"check", "-dir", "../.."}, &stdout, &stderr); code != 0 {
		t.Fatalf("committed baseline fails check (exit %d): %s", code, stderr.String())
	}
}

// writeFlightStream appends one solver flight stream (start/wave/end) to the
// ledger at path, ending with the given status and final incumbent/bound.
func writeFlightStream(t *testing.T, led *obs.EventLog, name, status string, inc, bound float64) {
	t.Helper()
	fr := obs.NewFlightRecorder(0)
	fr.Record(obs.SolveProgress{Seq: 0, Kind: obs.SolveProgStart, Workers: 2, Vars: 4, IntVars: 2, Constraints: 5})
	fr.Record(obs.SolveProgress{Seq: 1, Kind: obs.SolveProgWave, Wave: 1, Workers: 2, Nodes: 1,
		HasInc: true, Incumbent: inc - 2, HasBound: true, Bound: bound + 3, Pivots: 6})
	fr.Record(obs.SolveProgress{Seq: 2, Kind: obs.SolveProgEnd, Wave: 2, Workers: 2, Nodes: 3,
		HasInc: true, Incumbent: inc, HasBound: true, Bound: bound, Pivots: 11, Status: status})
	fr.AppendLedger(led, name)
}

func TestFlightCheck(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.jsonl")
	led, err := obs.OpenEventLog(good)
	if err != nil {
		t.Fatal(err)
	}
	writeFlightStream(t, led, "plan", "optimal", 10, 10)
	writeFlightStream(t, led, "replan", "optimal", 14, 14)
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	var out, errBuf bytes.Buffer
	if code := run([]string{"flightcheck", "-ledger", good}, &out, &errBuf); code != 0 {
		t.Fatalf("flightcheck -> %d: %s\n%s", code, errBuf.String(), out.String())
	}
	for _, want := range []string{"plan", "replan", "2 flight stream(s) ok"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}

	// A stream ending with an open gap fails unless -allow-gap.
	open := filepath.Join(dir, "open.jsonl")
	led, err = obs.OpenEventLog(open)
	if err != nil {
		t.Fatal(err)
	}
	writeFlightStream(t, led, "plan", "node-limit", 10, 12)
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errBuf.Reset()
	if code := run([]string{"flightcheck", "-ledger", open}, &out, &errBuf); code != 1 {
		t.Fatalf("open-gap flightcheck -> %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "BAD") || !strings.Contains(errBuf.String(), "failed validation") {
		t.Fatalf("open-gap output:\n%s\n%s", out.String(), errBuf.String())
	}
	if code := run([]string{"flightcheck", "-ledger", open, "-allow-gap"}, &out, &errBuf); code != 0 {
		t.Fatalf("-allow-gap -> %d", code)
	}

	// A ledger without solveprog events fails: the gate cannot pass vacuously.
	bare := filepath.Join(dir, "bare.jsonl")
	led, err = obs.OpenEventLog(bare)
	if err != nil {
		t.Fatal(err)
	}
	led.Append(obs.LedgerEvent{Type: obs.LedgerRunStart, Name: "mdsim"})
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	errBuf.Reset()
	if code := run([]string{"flightcheck", "-ledger", bare}, &out, &errBuf); code != 1 {
		t.Fatal("ledger without solveprog events accepted")
	}
	if !strings.Contains(errBuf.String(), "no solveprog events") {
		t.Fatalf("stderr = %q", errBuf.String())
	}
	if code := run([]string{"flightcheck"}, &out, &errBuf); code != 2 {
		t.Fatal("flightcheck without -ledger accepted")
	}
}

func TestRunsRegistry(t *testing.T) {
	dir := t.TempDir()
	for i, app := range []string{"lammps", "flash"} {
		led, err := obs.OpenEventLog(filepath.Join(dir, app+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		led.Append(obs.LedgerEvent{Type: obs.LedgerRunStart, Name: app, Args: map[string]float64{"steps": 4}})
		led.Event(obs.LedgerStep, "", 1, 100*time.Microsecond)
		writeFlightStream(t, led, "plan", "optimal", float64(10+i), float64(10+i))
		led.Append(obs.LedgerEvent{Type: obs.LedgerRunEnd, Step: 1})
		if err := led.Close(); err != nil {
			t.Fatal(err)
		}
	}

	var out, errBuf bytes.Buffer
	if code := run([]string{"runs", "-dir", dir}, &out, &errBuf); code != 0 {
		t.Fatalf("runs -> %d: %s", code, errBuf.String())
	}
	for _, want := range []string{"lammps", "flash", "plan"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, out.String())
		}
	}

	// -filter narrows to matching runs; -json round-trips.
	out.Reset()
	if code := run([]string{"runs", "-dir", dir, "-filter", "lammps"}, &out, &errBuf); code != 0 {
		t.Fatalf("filtered runs -> %d", code)
	}
	if strings.Contains(out.String(), "flash") {
		t.Fatalf("filter leaked flash:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"runs", "-dir", dir, "-json"}, &out, &errBuf); code != 0 {
		t.Fatalf("runs -json -> %d", code)
	}
	var reg obs.RunRegistry
	if err := json.Unmarshal(out.Bytes(), &reg); err != nil {
		t.Fatalf("runs -json not JSON: %v\n%s", err, out.String())
	}
	if len(reg.Runs) != 2 {
		t.Fatalf("registry has %d runs, want 2", len(reg.Runs))
	}

	// An empty directory is a failure, and a filter matching nothing too.
	errBuf.Reset()
	if code := run([]string{"runs", "-dir", t.TempDir()}, &out, &errBuf); code != 1 {
		t.Fatal("empty dir accepted")
	}
	if code := run([]string{"runs", "-dir", dir, "-filter", "nope"}, &out, &errBuf); code != 1 {
		t.Fatal("unmatched filter accepted")
	}
}
