package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"insitu/internal/obs"
	"insitu/internal/runmon"
)

func TestParseWeights(t *testing.T) {
	w, err := parseWeights("2, 1,2")
	if err != nil {
		t.Fatal(err)
	}
	if w != [3]float64{2, 1, 2} {
		t.Fatalf("weights = %v", w)
	}
	if _, err := parseWeights("1,2"); err == nil {
		t.Fatal("expected arity error")
	}
	if _, err := parseWeights("a,b,c"); err == nil {
		t.Fatal("expected number error")
	}
}

// flashsim runs the CLI in-process and fails the test on a non-zero exit.
func flashsim(t *testing.T, args ...string) string {
	t.Helper()
	var out, errBuf bytes.Buffer
	if code := run(args, &out, &errBuf); code != 0 {
		t.Fatalf("flashsim %v -> %d: %s", args, code, errBuf.String())
	}
	return out.String()
}

func TestRunSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline too heavy for -short")
	}
	ledgerPath := filepath.Join(t.TempDir(), "run.jsonl")
	flashsim(t, "-blocks", "2", "-nb", "6", "-steps", "10", "-threshold-pct", "20", "-interval", "5", "-ranks", "2",
		"-ledger", ledgerPath)
	events, err := obs.ReadLedgerFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	sum := runmon.Analyze(events, nil, runmon.Config{})
	if sum.App != "flashsim/sedov" || sum.Step != 10 || len(sum.Solves) != 1 {
		t.Fatalf("ledger app=%q steps=%d solves=%d", sum.App, sum.Step, len(sum.Solves))
	}
}

// TestReplanRunLedgerOrder drives a weighted -monitor -replan -ledger run and
// checks the campaign path wrote the ledger in pipeline order — one solve (the
// weights ride in the plan, not in a second solve), then the plan events
// carrying its predictions, then the run.
func TestReplanRunLedgerOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline too heavy for -short")
	}
	ledgerPath := filepath.Join(t.TempDir(), "run.jsonl")
	text := flashsim(t, "-blocks", "2", "-nb", "6", "-steps", "10", "-threshold-pct", "20", "-interval", "5", "-ranks", "2",
		"-weights", "2,1,2", "-monitor", "-replan", "-ledger", ledgerPath)
	for _, want := range []string{"weights=[2 1 2]", "executed: sim=", "run monitor:", "replan: "} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	events, err := obs.ReadLedgerFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	// Before run_start the ledger holds exactly one solve, then plan events;
	// a second solve there would be the weighted re-solve this CLI used to do.
	solves, plans := 0, 0
	for _, e := range events {
		if e.Type == obs.LedgerRunStart {
			break
		}
		switch {
		case e.Type == obs.LedgerSolve && plans == 0:
			solves++
		case e.Type == obs.LedgerPlan:
			plans++
		default:
			t.Fatalf("unexpected %q event before run_start (after %d solve, %d plan)", e.Type, solves, plans)
		}
	}
	if solves != 1 || plans == 0 {
		t.Fatalf("%d solve and %d plan events before run_start, want 1 and some", solves, plans)
	}
	if events[0].Name != "plan" || events[len(events)-1].Type != obs.LedgerRunEnd {
		t.Fatalf("ledger opens with solve %q and ends with %q", events[0].Name, events[len(events)-1].Type)
	}
}
