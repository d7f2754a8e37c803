package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"insitu/internal/obs"
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
	// The measuring subcommands are gone: benchmark/ and the perfbench
	// baseline test took their place.
	for _, gone := range []string{"run", "compare", "check", "serve"} {
		if code := run([]string{gone}, &out, &errBuf); code != 2 {
			t.Fatalf("%s -> %d, want 2 (unknown command)", gone, code)
		}
	}
	if code := run([]string{"summarize"}, &out, &errBuf); code != 2 {
		t.Fatal("summarize without -ledger accepted")
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
