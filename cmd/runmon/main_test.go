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
	"insitu/internal/runmon"
)

// writeSynthLedger writes a deterministic perturbed run's ledger to a temp
// file and returns its path.
func writeSynthLedger(t *testing.T, srun runmon.SynthRun) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	led, err := obs.OpenEventLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range srun.Events() {
		led.Append(e)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func driftRun() runmon.SynthRun {
	return runmon.SynthRun{
		Name: "cli", App: "mdsim/cli", Steps: 60,
		SimSec: 0.010, ThresholdSec: 0.5, NoiseFrac: 0.02,
		Kind: runmon.PerturbSimTime, ChangeStep: 30, Factor: 1.5,
		Kernels: []runmon.SynthKernel{
			{Name: "rdf", AnalyzeSec: 0.004, OutputSec: 0.001, Every: 2, OutputEvery: 4, Bytes: 1 << 20},
		},
	}
}

func TestCmdReport(t *testing.T) {
	path := writeSynthLedger(t, driftRun())
	var stdout, stderr bytes.Buffer
	htmlPath := filepath.Join(t.TempDir(), "drift.html")
	code := run(context.Background(), []string{"report", "-ledger", path, "-html", htmlPath}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"run: mdsim/cli", "DRIFT@", "summary:", "1 drift alert"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	html, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(html), "Run drift report") {
		t.Fatal("HTML report not written")
	}
}

func TestCmdReportJSON(t *testing.T) {
	path := writeSynthLedger(t, driftRun())
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"report", "-json", "-ledger", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	var s runmon.Snapshot
	if err := json.Unmarshal(stdout.Bytes(), &s); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	if s.DriftCount() != 1 || !s.Ended {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestCmdTailOnComplete(t *testing.T) {
	// Tailing an already-complete ledger drains it in one poll and exits 0
	// when it sees run_end.
	path := writeSynthLedger(t, driftRun())
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"tail", "-ledger", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "run ended:") || !strings.Contains(out, "DRIFT@") {
		t.Fatalf("tail output:\n%s", out)
	}
}

func TestCmdTailOnceOnMissingFile(t *testing.T) {
	// -once on a not-yet-created ledger exits cleanly without waiting.
	path := filepath.Join(t.TempDir(), "nope.jsonl")
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"tail", "-once", "-ledger", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
}

func TestCmdUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), nil, &stdout, &stderr); code != 2 {
		t.Fatalf("no args -> %d, want 2", code)
	}
	if code := run(context.Background(), []string{"bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown command -> %d, want 2", code)
	}
	if code := run(context.Background(), []string{"report"}, &stdout, &stderr); code != 2 {
		t.Fatalf("report without ledger -> %d, want 2", code)
	}
	if code := run(context.Background(), []string{"help"}, &stdout, &stderr); code != 0 {
		t.Fatalf("help -> %d, want 0", code)
	}
}

// TestCmdCheckUsage: check is listed in help, needs at least one ledger, and
// the ledger subcommands it replaced are unknown commands.
func TestCmdCheckUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"help"}, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "check") {
		t.Fatalf("help -> %d, %s", code, stdout.String())
	}
	stderr.Reset()
	if code := run(context.Background(), []string{"check"}, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "usage: runmon check") {
		t.Fatalf("check without ledgers -> %d, stderr %q; want 2 and usage", code, stderr.String())
	}
	for _, gone := range []string{"summarize", "flightcheck", "runs"} {
		if code := run(context.Background(), []string{gone}, &stdout, &stderr); code != 2 {
			t.Fatalf("%s -> %d, want 2 (unknown command)", gone, code)
		}
	}
}

// TestCmdReportSolveRows: report prints one row per solve event, and an
// empty or absent ledger is a one-line error.
func TestCmdReportSolveRows(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	writeLedger(t, path, func(led *obs.EventLog) {
		led.Append(obs.LedgerEvent{Type: obs.LedgerRunStart, Name: "mdsim", Args: map[string]float64{"steps": 2}})
		led.Append(obs.LedgerEvent{Type: obs.LedgerSolve, Name: "plan", Dur: 12, Args: map[string]float64{"nodes": 5, "pivots": 40, "objective": 21}})
		led.Event(obs.LedgerStep, "", 1, 100*time.Microsecond)
		led.Event(obs.LedgerAnalysis, "rdf", 1, 30*time.Microsecond)
		led.Event(obs.LedgerStep, "", 2, 110*time.Microsecond)
	})
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"report", "-ledger", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	for _, want := range []string{"run: mdsim", "solve plan", "nodes=5", "pivots=40", "objective=21 (12 us)"} {
		if !strings.Contains(stdout.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, stdout.String())
		}
	}

	empty := filepath.Join(dir, "empty.jsonl")
	writeLedger(t, empty, func(*obs.EventLog) {})
	for p, want := range map[string]string{empty: "no events", filepath.Join(dir, "absent.jsonl"): "no such file"} {
		stderr.Reset()
		if code := run(context.Background(), []string{"report", "-ledger", p}, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), want) {
			t.Fatalf("report %s -> %d, stderr %q; want 1 and %q", p, code, stderr.String(), want)
		}
	}
}

// writeLedger creates the ledger at path and fills it with fill.
func writeLedger(t *testing.T, path string, fill func(*obs.EventLog)) {
	t.Helper()
	led, err := obs.OpenEventLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	fill(led)
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
}

// appendFlight appends one solver flight stream (start/node/end) ending with
// the given status and final incumbent/bound.
func appendFlight(led *obs.EventLog, name, status string, inc, bound float64) {
	fr := obs.NewFlightRecorder(0)
	fr.Record(obs.SolveProgress{Seq: 0, Kind: obs.SolveProgStart, Workers: 2, Vars: 4, IntVars: 2, Constraints: 5})
	fr.Record(obs.SolveProgress{Seq: 1, Kind: obs.SolveProgNode, Workers: 2, Nodes: 1,
		HasInc: true, Incumbent: inc - 2, HasBound: true, Bound: bound + 3, Pivots: 6})
	fr.Record(obs.SolveProgress{Seq: 2, Kind: obs.SolveProgEnd, Workers: 2, Nodes: 3,
		HasInc: true, Incumbent: inc, HasBound: true, Bound: bound, Pivots: 11, Status: status})
	fr.AppendLedger(led, name)
}

func TestCmdCheck(t *testing.T) {
	dir := t.TempDir()
	check := func(paths ...string) (int, string, string) {
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), append([]string{"check"}, paths...), &stdout, &stderr)
		return code, stdout.String(), stderr.String()
	}

	good := filepath.Join(dir, "good.jsonl")
	writeLedger(t, good, func(led *obs.EventLog) {
		led.Append(obs.LedgerEvent{Type: obs.LedgerRunStart, Name: "lammps"})
		appendFlight(led, "plan", "optimal", 10, 10)
		appendFlight(led, "replan", "optimal", 14, 14)
	})
	code, out, errOut := check(good)
	if code != 0 {
		t.Fatalf("check good -> %d: %s\n%s", code, errOut, out)
	}
	for _, want := range []string{good + ": app=lammps", "plan", "replan", "ok (optimal, gap 0)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}

	// A stream that stops at the node limit with the gap open fails.
	open := filepath.Join(dir, "open.jsonl")
	writeLedger(t, open, func(led *obs.EventLog) { appendFlight(led, "plan", "node-limit", 10, 12) })
	code, out, errOut = check(open)
	if code != 1 || !strings.Contains(out, "BAD: status node-limit, final gap 2") {
		t.Fatalf("open-gap check -> %d:\n%s\n%s", code, out, errOut)
	}

	// A ledger without solveprog events fails: the gate cannot pass vacuously.
	bare := filepath.Join(dir, "bare.jsonl")
	writeLedger(t, bare, func(led *obs.EventLog) {
		led.Append(obs.LedgerEvent{Type: obs.LedgerRunStart, Name: "mdsim"})
	})
	if code, _, errOut = check(bare); code != 1 || !strings.Contains(errOut, "no solveprog events") {
		t.Fatalf("bare check -> %d: %q", code, errOut)
	}
}

// TestCmdCheckRunRows: check prints one run row per ledger, and with several
// ledgers one bad one fails the run and is the one named.
func TestCmdCheckRunRows(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for i, app := range []string{"lammps", "flash"} {
		path := filepath.Join(dir, app+".jsonl")
		writeLedger(t, path, func(led *obs.EventLog) {
			led.Append(obs.LedgerEvent{Type: obs.LedgerRunStart, Name: app, Args: map[string]float64{"steps": 4}})
			led.Event(obs.LedgerStep, "", 1, 100*time.Microsecond)
			appendFlight(led, "plan", "optimal", float64(10+i), float64(10+i))
			led.Append(obs.LedgerEvent{Type: obs.LedgerRunEnd, Step: 1})
		})
		paths = append(paths, path)
	}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), append([]string{"check"}, paths...), &stdout, &stderr); code != 0 {
		t.Fatalf("check -> %d: %s", code, stderr.String())
	}
	for _, p := range paths {
		if !strings.Contains(stdout.String(), p+": app=") {
			t.Fatalf("no run row for %s:\n%s", p, stdout.String())
		}
	}
	for _, want := range []string{"app=lammps", "app=flash", "plan"} {
		if !strings.Contains(stdout.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, stdout.String())
		}
	}

	open := filepath.Join(dir, "open.jsonl")
	writeLedger(t, open, func(led *obs.EventLog) { appendFlight(led, "plan", "node-limit", 10, 12) })
	stderr.Reset()
	code := run(context.Background(), []string{"check", paths[0], open}, &stdout, &stderr)
	if errOut := stderr.String(); code != 1 || !strings.Contains(errOut, "1 of 2 ledger(s): "+open) || strings.Contains(errOut, paths[0]) {
		t.Fatalf("check good+open -> %d: %q", code, errOut)
	}
}

// TestCmdCheckEveryReplan: a replanning run logs the plan solve plus up to
// eight re-solves, one more than a live monitor retains; check reads every
// stream, so a bad first one still fails the ledger.
func TestCmdCheckEveryReplan(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		planStatus string
		planBound  float64
		code       int
	}{{"optimal", 10, 0}, {"node-limit", 12, 1}} {
		path := filepath.Join(dir, tc.planStatus+".jsonl")
		writeLedger(t, path, func(led *obs.EventLog) {
			appendFlight(led, "plan", tc.planStatus, 10, tc.planBound)
			for i := 1; i <= 8; i++ {
				appendFlight(led, fmt.Sprintf("replan-%d", i), "optimal", 10, 10)
			}
		})
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), []string{"check", path}, &stdout, &stderr)
		out := stdout.String()
		if n := strings.Count(out, " event(s) "); n != 9 || !strings.Contains(out, "replan-8") {
			t.Fatalf("%s plan: %d stream line(s), want 9:\n%s", tc.planStatus, n, out)
		}
		if code != tc.code {
			t.Fatalf("%s plan: check -> %d, want %d:\n%s", tc.planStatus, code, tc.code, out)
		}
	}
}

// TestServeLedgerLiveAndGracefulShutdown boots runmon serve on a real
// listener over a growing ledger, checks the live endpoints, then cancels
// the context and requires a clean exit — the serve-side satellite of the
// graceful-shutdown requirement.
func TestServeLedgerLiveAndGracefulShutdown(t *testing.T) {
	path := writeSynthLedger(t, driftRun())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var stdout, stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- serveLedger(ctx, ln, path, 10*time.Millisecond, &stdout, &stderr)
	}()

	base := fmt.Sprintf("http://%s", ln.Addr())
	get := func(p string) string {
		t.Helper()
		// Retry until the follower has drained the ledger.
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get(base + p)
			if err == nil {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return string(body)
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("GET %s never succeeded: %v", p, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Wait until the monitor has consumed the whole run.
	deadline := time.Now().Add(10 * time.Second)
	var snap runmon.Snapshot
	for {
		if err := json.Unmarshal([]byte(get("/drift.json")), &snap); err != nil {
			t.Fatalf("drift.json: %v", err)
		}
		if snap.Ended {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never ended in monitor: %+v", snap)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if snap.DriftCount() != 1 {
		t.Fatalf("drift alerts = %d, want 1", snap.DriftCount())
	}
	if !strings.Contains(get("/"), "Run drift report") {
		t.Fatal("dashboard not served at /")
	}
	if !strings.Contains(get("/metrics"), "runmon_ewma_rel_err") {
		t.Fatal("detector gauges missing from /metrics")
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("serveLedger exit %d, stderr:\n%s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serveLedger did not shut down after cancellation")
	}
}
