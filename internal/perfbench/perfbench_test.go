package perfbench

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite BENCH_counters.json from this run")

// baselinePath is the committed counter baseline at the repository root.
const baselinePath = "../../BENCH_counters.json"

// runCatalog runs every workload once and returns its counters by workload
// name.
func runCatalog(t *testing.T) map[string]Counters {
	t.Helper()
	out := map[string]Counters{}
	for _, w := range Workloads() {
		c, err := w.Run()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if _, dup := out[w.Name]; dup {
			t.Fatalf("workload name %q appears twice in the catalog", w.Name)
		}
		out[w.Name] = c
	}
	return out
}

// firstRun is one catalog pass shared by the tests that only read it.
var firstRun = struct {
	once sync.Once
	got  map[string]Counters
}{}

func catalog(t *testing.T) map[string]Counters {
	t.Helper()
	if testing.Short() {
		t.Skip("runs every catalog workload")
	}
	firstRun.once.Do(func() { firstRun.got = runCatalog(t) })
	if firstRun.got == nil {
		t.Fatal("the shared catalog run failed in an earlier test")
	}
	return firstRun.got
}

// TestCountersBaseline holds every counter of every workload to the committed
// BENCH_counters.json with exact equality, both ways: a counter that moved, a
// counter or workload that vanished, and one the file does not know yet all
// fail, as does a file not in the name-sorted form -update writes. Intentional
// changes regenerate the file in the same commit, so the
// review diff shows exactly which counters moved:
//
//	go test ./internal/perfbench -run TestCountersBaseline -update
//
// It also audits what the counters say about the run itself: every workload
// recording solver_workers ran a real pool (a catalog silently back on a wave
// of one would still be deterministic), and where warm re-solves were
// attempted at most a fifth of them fell back to a cold solve.
func TestCountersBaseline(t *testing.T) {
	got := catalog(t)
	if *update {
		// encoding/json writes map keys sorted, so the file is name-sorted.
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(baselinePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]Counters
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", baselinePath, err)
	}
	if canonical, err := json.MarshalIndent(want, "", "  "); err != nil || !bytes.Equal(append(canonical, '\n'), data) {
		t.Errorf("%s is not in the name-sorted form -update writes (%v)", baselinePath, err)
	}
	for name, wc := range want {
		gc, ok := got[name]
		if !ok {
			t.Errorf("%s: in the baseline, gone from the catalog", name)
			continue
		}
		for k, v := range wc {
			if g, ok := gc[k]; !ok {
				t.Errorf("%s/%s: in the baseline (%v), no longer reported", name, k, v)
			} else if g != v {
				t.Errorf("%s/%s = %v, baseline %v", name, k, g, v)
			}
		}
	}
	for name, gc := range got {
		for k, g := range gc {
			if _, ok := want[name][k]; !ok {
				t.Errorf("%s/%s = %v is not in the baseline", name, k, g)
			}
		}
	}
	if t.Failed() {
		t.Log("run with -update to accept")
	}

	pooled := 0
	for name, c := range got {
		workers, ok := c["solver_workers"]
		if !ok {
			continue
		}
		pooled++
		if workers < 2 {
			t.Errorf("%s ran at solver_workers = %v, want a pool of at least 2", name, workers)
		}
		if total := c["warm_solves"] + c["fallback_colds"]; total > 0 {
			if ratio := c["fallback_colds"] / total; ratio > 0.2 {
				t.Errorf("%s: %.0f%% of warm re-solves fell back to a cold solve, want at most 20%%", name, ratio*100)
			}
		}
	}
	if pooled == 0 {
		t.Error("no workload records solver_workers: the pool-width audit is vacuous")
	}
}

// TestWorkloadDeterminism runs the catalog a second time and checks that
// every workload returns exactly the counters it returned the first time —
// the property the committed baseline rests on.
func TestWorkloadDeterminism(t *testing.T) {
	first := catalog(t)
	second := runCatalog(t)
	for name, a := range first {
		if b := second[name]; !reflect.DeepEqual(a, b) {
			t.Errorf("%s: %v then %v — not deterministic", name, a, b)
		}
	}
}

// TestWorkloadCatalog checks the catalog's shape: every counter is a finite
// number JSON can carry, and the solving workloads surface branch-and-bound
// effort and an objective.
func TestWorkloadCatalog(t *testing.T) {
	for name, c := range catalog(t) {
		if len(c) == 0 {
			t.Errorf("%s reports no counters", name)
		}
		for k, v := range c {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s/%s = %v", name, k, v)
			}
		}
		if strings.HasPrefix(name, "sched_") || strings.HasPrefix(name, "placement_") {
			if c["solver_nodes_per_op"] <= 0 || c["solver_pivots_per_op"] <= 0 || c["objective"] <= 0 {
				t.Errorf("%s has no solver effort or objective: %v", name, c)
			}
		}
	}
}
