package obs

import (
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
)

// TestArgAfterEndSealed pins the span hand-off contract: End transfers the
// argument map to the recorded event, so a late Arg must not mutate what a
// trace writer reads.
func TestArgAfterEndSealed(t *testing.T) {
	tr := NewTracer()
	s := tr.Begin("solve", "milp").Arg("nodes", 3)
	s.End()
	s.Arg("late", 99) // must be a no-op on the sealed span
	s.End()           // idempotent
	events := tr.Events()
	if len(events) != 1 {
		t.Fatalf("%d events recorded, want 1", len(events))
	}
	if _, ok := events[0].Args["late"]; ok {
		t.Fatal("post-End Arg reached the recorded event")
	}
	if events[0].Args["nodes"] != 3 {
		t.Fatalf("args = %v", events[0].Args)
	}
}

// TestTraceConcurrentWriters drives live spans, track renames, and counters
// against concurrent trace exports. Run under -race (the CI test job does for
// this package) it pins that WriteChromeTrace/WriteTraceFile snapshot state
// in one critical section and that recorded events own their argument maps.
func TestTraceConcurrentWriters(t *testing.T) {
	tr := NewTracer()
	path := filepath.Join(t.TempDir(), "trace.json")
	var wg sync.WaitGroup

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.SetTrackName(g, "worker "+strconv.Itoa(g))
				s := tr.BeginOn(g, "span", "test").Arg("i", float64(i))
				s.Arg("g", float64(g))
				s.End()
				s.Arg("late", 1) // sealed: must not race with the writers below
				tr.Counter("open", float64(i))
				tr.Instant("tick", "test", map[string]float64{"i": float64(i)})
			}
		}(g)
	}

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := tr.WriteChromeTrace(io.Discard); err != nil {
					t.Errorf("WriteChromeTrace: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := WriteTraceFile(path, tr); err != nil {
				t.Errorf("WriteTraceFile: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	if tr.Len() == 0 {
		t.Fatal("no events recorded")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("trace file missing: %v", err)
	}
}
