package trajectory

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"insitu/internal/sim/md"
)

// FuzzReader feeds arbitrary bytes to the trajectory reader: it must reject
// or read them cleanly, never panic, and never return more frames than the
// payload can hold.
func FuzzReader(f *testing.F) {
	// Seed with a valid two-frame file.
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.traj")
	w, err := NewWriter(path, 2)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := w.WriteFrame(int64(i), make([]float32, 2*md.FrameFields)); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte("ISTRAJ1\n"))
	f.Add([]byte{})
	f.Add(seed[:20])

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "f.traj")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		r, err := OpenReader(p)
		if err != nil {
			return // rejected cleanly
		}
		defer r.Close()
		if r.NumAtoms() <= 0 || r.Fields() <= 0 {
			t.Fatalf("accepted corrupt header: %d/%d", r.NumAtoms(), r.Fields())
		}
		frames := 0
		for {
			_, _, err := r.ReadFrame()
			if err == io.EOF {
				break
			}
			if err != nil {
				return // truncated frame reported cleanly
			}
			frames++
			if frames > len(data) {
				t.Fatal("more frames than bytes")
			}
		}
	})
}
