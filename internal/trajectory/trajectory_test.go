package trajectory

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"insitu/internal/sim/md"
)

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.traj")
	w, err := NewWriter(path, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	frames := [][]float32{}
	for f := 0; f < 4; f++ {
		data := make([]float32, 5*md.FrameFields)
		for i := range data {
			data[i] = rng.Float32()
		}
		frames = append(frames, data)
		if err := w.WriteFrame(int64(f*100), data); err != nil {
			t.Fatal(err)
		}
	}
	if w.Frames() != 4 {
		t.Fatalf("frames = %d", w.Frames())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumAtoms() != 5 || r.Fields() != md.FrameFields {
		t.Fatalf("header = %d/%d", r.NumAtoms(), r.Fields())
	}
	for f := 0; f < 4; f++ {
		step, data, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if step != int64(f*100) {
			t.Fatalf("step = %d, want %d", step, f*100)
		}
		for i := range data {
			if data[i] != frames[f][i] {
				t.Fatalf("frame %d value %d = %g, want %g", f, i, data[i], frames[f][i])
			}
		}
	}
	if _, _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestWriterValidation(t *testing.T) {
	if _, err := NewWriter(filepath.Join(t.TempDir(), "x"), 0); err == nil {
		t.Fatal("expected geometry error")
	}
	path := filepath.Join(t.TempDir(), "t.traj")
	w, err := NewWriter(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(0, make([]float32, 3)); err == nil {
		t.Fatal("expected frame-size error")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
	if err := w.WriteFrame(0, make([]float32, 4)); err == nil {
		t.Fatal("write after close must fail")
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad")
	if err := os.WriteFile(path, []byte("not a trajectory at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReader(path); err == nil {
		t.Fatal("expected magic error")
	}
	if _, err := OpenReader(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("expected open error")
	}
}

func TestTruncatedFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.traj")
	w, err := NewWriter(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(1, make([]float32, 4*md.FrameFields)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Chop off the last 4 bytes.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, _, err := r.ReadFrame(); err == nil || err == io.EOF {
		t.Fatalf("expected truncation error, got %v", err)
	}
}

func TestBytesPerFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.traj")
	w, err := NewWriter(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := w.BytesPerFrame(); got != 8+4*10*6 {
		t.Fatalf("bytes per frame = %d", got)
	}
}

func TestOnDiskSizeMatchesModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.traj")
	natoms, frames := 100, 7
	w, err := NewWriter(path, natoms)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < frames; f++ {
		if err := w.WriteFrame(int64(f), make([]float32, natoms*md.FrameFields)); err != nil {
			t.Fatal(err)
		}
	}
	bpf := w.BytesPerFrame()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(16) + bpf*int64(frames) // 8 magic + 8 header
	if fi.Size() != want {
		t.Fatalf("file size = %d, want %d", fi.Size(), want)
	}
}
