package runmon

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"insitu/internal/obs"
)

func appendLines(t *testing.T, path string, lines ...string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, line := range lines {
		if _, err := f.WriteString(line); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFollowerPicksUpAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	f := NewFollower(path)

	// Missing file: not an error, no events.
	if events, err := f.Poll(); err != nil || events != nil {
		t.Fatalf("missing file: events=%v err=%v", events, err)
	}

	appendLines(t, path,
		`{"v":2,"type":"run_start","name":"mdsim/water"}`+"\n",
		`{"v":2,"type":"step","step":1,"dur_us":100}`+"\n",
	)
	events, err := f.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Type != obs.LedgerRunStart || events[1].Step != 1 {
		t.Fatalf("first poll = %+v", events)
	}

	// Nothing new: no events, no error.
	if events, err := f.Poll(); err != nil || len(events) != 0 {
		t.Fatalf("idle poll: events=%v err=%v", events, err)
	}

	appendLines(t, path, `{"v":2,"type":"step","step":2,"dur_us":100}`+"\n")
	events, err = f.Poll()
	if err != nil || len(events) != 1 || events[0].Step != 2 {
		t.Fatalf("second poll: events=%+v err=%v", events, err)
	}
}

func TestFollowerBuffersPartialLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	whole := `{"v":2,"type":"step","step":7,"dur_us":100}` + "\n"
	half := len(whole) / 2

	appendLines(t, path, whole[:half])
	f := NewFollower(path)
	if events, err := f.Poll(); err != nil || len(events) != 0 {
		t.Fatalf("partial line yielded events=%v err=%v", events, err)
	}
	appendLines(t, path, whole[half:])
	events, err := f.Poll()
	if err != nil || len(events) != 1 || events[0].Step != 7 {
		t.Fatalf("completed line: events=%+v err=%v", events, err)
	}
}

func TestFollowerResetsOnTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	appendLines(t, path,
		`{"v":2,"type":"step","step":1,"dur_us":100}`+"\n",
		`{"v":2,"type":"step","step":2,"dur_us":100}`+"\n",
	)
	f := NewFollower(path)
	if events, err := f.Poll(); err != nil || len(events) != 2 {
		t.Fatalf("events=%v err=%v", events, err)
	}

	// Truncate-and-rewrite: the follower must start over, not mid-file.
	if err := os.WriteFile(path, []byte(`{"v":2,"type":"step","step":9,"dur_us":100}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	events, err := f.Poll()
	if err != nil || len(events) != 1 || events[0].Step != 9 {
		t.Fatalf("after truncation: events=%+v err=%v", events, err)
	}
}

func TestFollowerSkipsNewerSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	appendLines(t, path,
		fmt.Sprintf(`{"v":%d,"type":"warp","step":1}`, obs.LedgerSchemaVersion+1)+"\n",
		`{"v":2,"type":"step","step":1,"dur_us":100}`+"\n",
	)
	f := NewFollower(path)
	events, err := f.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Type != obs.LedgerStep || events[0].Step != 1 {
		t.Fatalf("events = %+v, want only the v1 step", events)
	}
}

func TestFollowerReportsMalformedJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	appendLines(t, path, "{not json}\n")
	f := NewFollower(path)
	if _, err := f.Poll(); err == nil {
		t.Fatal("malformed line did not error")
	}
}

func TestFollowCancels(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	appendLines(t, path, `{"v":2,"type":"step","step":1,"dur_us":100}`+"\n")

	ctx, cancel := context.WithCancel(context.Background())
	var got []obs.LedgerEvent
	done := make(chan error, 1)
	go func() {
		done <- Follow(ctx, path, 10*time.Millisecond, func(e obs.LedgerEvent) {
			got = append(got, e)
			cancel() // stop as soon as the first event arrives
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Follow returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Follow did not return after cancellation")
	}
	if len(got) != 1 || got[0].Step != 1 {
		t.Fatalf("events = %+v", got)
	}
}
