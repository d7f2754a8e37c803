package runmon

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"time"

	"insitu/internal/obs"
)

// Follower incrementally reads a growing JSONL ledger file. Each Poll picks
// up exactly the bytes appended since the last one, keeping any trailing
// partial line buffered until its newline arrives — the EventLog writer
// flushes whole lines, but a tailer must still never split one. A file that
// shrinks under the follower (truncate-and-rewrite) resets it to the start.
type Follower struct {
	path    string
	offset  int64
	partial []byte
}

// NewFollower tails the ledger at path from the beginning.
func NewFollower(path string) *Follower {
	return &Follower{path: path}
}

// Poll returns the events appended since the previous call. A missing file
// is not an error — the run may not have started yet — it simply yields no
// events. The complete lines are parsed by obs.ReadLedger, so malformed JSON
// is an error and newer-schema lines are skipped, exactly as for a whole
// file.
func (f *Follower) Poll() ([]obs.LedgerEvent, error) {
	file, err := os.Open(f.path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	defer file.Close()

	info, err := file.Stat()
	if err != nil {
		return nil, err
	}
	if info.Size() < f.offset {
		// Truncated and rewritten: start over.
		f.offset = 0
		f.partial = nil
	}
	if info.Size() == f.offset {
		return nil, nil
	}
	if _, err := file.Seek(f.offset, io.SeekStart); err != nil {
		return nil, err
	}
	chunk, err := io.ReadAll(file)
	if err != nil {
		return nil, err
	}
	f.offset += int64(len(chunk))

	buf := append(f.partial, chunk...)
	lines := bytes.LastIndexByte(buf, '\n') + 1 // complete lines end here
	f.partial = append([]byte(nil), buf[lines:]...)
	if lines == 0 {
		return nil, nil
	}
	return obs.ReadLedger(bytes.NewReader(buf[:lines]))
}

// Follow polls the ledger at path every interval and hands each appended
// event to fn, until ctx is canceled (returning nil) or a read fails. It is
// the engine under runmon tail and runmon serve: fn is typically
// Monitor.Observe plus a dashboard refresh.
func Follow(ctx context.Context, path string, interval time.Duration, fn func(obs.LedgerEvent)) error {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	f := NewFollower(path)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		events, err := f.Poll()
		if err != nil {
			return err
		}
		for _, e := range events {
			fn(e)
		}
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
		}
	}
}
