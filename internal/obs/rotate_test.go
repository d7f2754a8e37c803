package obs

import (
	"os"
	"path/filepath"
	"testing"
)

// TestEventLogRotationCap writes events through a tightly capped ledger and
// checks the rotation contract: at most two generations on disk, both
// parseable, the total appended count preserved across them plus whatever
// earlier generations were dropped, and the epoch shared (timestamps keep
// rising across the boundary).
func TestEventLogRotationCap(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	l, err := OpenEventLog(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		l.Append(LedgerEvent{Type: LedgerStep, Step: i + 1, Dur: 100})
	}
	if err := l.Err(); err != nil {
		t.Fatalf("ledger error: %v", err)
	}
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Fatalf("50 events through a 256-byte cap should have rotated: %v", err)
	}
	// The 50th append may have landed exactly on a rotation boundary, leaving
	// the fresh generation empty; one more event pins both files non-empty.
	l.Append(LedgerEvent{Type: LedgerStep, Step: 51, Dur: 100})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	cur, err := ReadLedgerFile(path)
	if err != nil {
		t.Fatalf("active generation unreadable: %v", err)
	}
	prev, err := ReadLedgerFile(path + ".1")
	if err != nil {
		t.Fatalf("previous generation unreadable: %v", err)
	}
	if len(cur) == 0 || len(prev) == 0 {
		t.Fatalf("want events in both generations, got %d current, %d previous", len(cur), len(prev))
	}
	fi, err := os.Stat(path + ".1")
	if err != nil {
		t.Fatal(err)
	}
	// One event may straddle the cap, so allow a line of slack.
	if fi.Size() > 256+128 {
		t.Fatalf("rotated generation is %d bytes, far past the 256-byte cap", fi.Size())
	}
	// The retained files hold contiguous suffixes of the stream: the last
	// previous-generation step immediately precedes the first current one.
	if prev[len(prev)-1].Step+1 != cur[0].Step {
		t.Fatalf("generations not contiguous: previous ends at step %d, current starts at %d",
			prev[len(prev)-1].Step, cur[0].Step)
	}
	if cur[len(cur)-1].Step != 51 {
		t.Fatalf("active generation should end at step 51, got %d", cur[len(cur)-1].Step)
	}
	// Shared epoch: timestamps rise monotonically across the boundary.
	if cur[0].TS < prev[len(prev)-1].TS {
		t.Fatalf("epoch reset across rotation: %.0f then %.0f", prev[len(prev)-1].TS, cur[0].TS)
	}
}

// TestEventLogUncapped: a 0 cap never rotates.
func TestEventLogUncapped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	l, err := OpenEventLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		l.Append(LedgerEvent{Type: LedgerStep, Step: i + 1, Dur: 100})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".1"); !os.IsNotExist(err) {
		t.Fatalf("an uncapped ledger rotated: %v", err)
	}
	if events, err := ReadLedgerFile(path); err != nil || len(events) != 50 {
		t.Fatalf("read %d events, %v; want 50", len(events), err)
	}
}

// TestEventLogRotationStickyError wedges the rename target and checks the
// rotation failure is sticky: later appends become no-ops and Close reports
// the first error, matching the append-error contract.
func TestEventLogRotationStickyError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "run.jsonl")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	l, err := OpenEventLog(path, 32)
	if err != nil {
		t.Fatal(err)
	}
	// Removing the parent directory makes the rename-and-reopen fail.
	if err := os.RemoveAll(filepath.Dir(path)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		l.Append(LedgerEvent{Type: LedgerStep, Step: i + 1})
	}
	if l.Err() == nil {
		t.Fatal("rotation into a removed directory should stick an error")
	}
	before := l.Len()
	l.Append(LedgerEvent{Type: LedgerStep, Step: 99})
	if l.Len() != before {
		t.Fatal("appends after a sticky error must be no-ops")
	}
	if err := l.Close(); err == nil {
		t.Fatal("Close must report the sticky rotation error")
	}
}
