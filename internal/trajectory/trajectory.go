// Package trajectory implements a binary trajectory file format for simulation
// output, the artifact the post-processing workflow reads back. LAMMPS-style
// dumps store per-atom coordinates and velocities per frame; the Table-4
// experiment writes a trajectory during the simulation and then measures the
// read-and-analyze cost of the post-processing path against the in-situ
// path.
//
// Format (little endian):
//
//	magic   [8]byte  "ISTRAJ1\n"
//	natoms  uint32
//	fields  uint32   values per atom per frame
//	frames: step uint64, natoms*fields float32
package trajectory

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"insitu/internal/sim/md"
)

var magic = [8]byte{'I', 'S', 'T', 'R', 'A', 'J', '1', '\n'}

// Writer streams trajectory frames to a file.
type Writer struct {
	f      *os.File
	w      *bufio.Writer
	natoms int
	frames int
	closed bool
}

// NewWriter creates a trajectory file for natoms atoms with md.FrameFields
// values per atom per frame, as md.System.Frame lays them out.
func NewWriter(path string, natoms int) (*Writer, error) {
	if natoms <= 0 {
		return nil, fmt.Errorf("trajectory: invalid geometry natoms=%d", natoms)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f, w: bufio.NewWriterSize(f, 1<<20), natoms: natoms}
	if _, err := w.w.Write(magic[:]); err != nil {
		f.Close()
		return nil, err
	}
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr[0:], uint32(natoms))
	binary.LittleEndian.PutUint32(hdr[4:], md.FrameFields)
	if _, err := w.w.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// WriteFrame appends one frame. len(data) must equal natoms*md.FrameFields.
func (w *Writer) WriteFrame(step int64, data []float32) error {
	if w.closed {
		return fmt.Errorf("trajectory: write to closed writer")
	}
	if len(data) != w.natoms*md.FrameFields {
		return fmt.Errorf("trajectory: frame has %d values, want %d", len(data), w.natoms*md.FrameFields)
	}
	var stepBuf [8]byte
	binary.LittleEndian.PutUint64(stepBuf[:], uint64(step))
	if _, err := w.w.Write(stepBuf[:]); err != nil {
		return err
	}
	buf := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(buf[4*i:], floatBits(v))
	}
	if _, err := w.w.Write(buf); err != nil {
		return err
	}
	w.frames++
	return nil
}

// Frames returns the number of frames written so far.
func (w *Writer) Frames() int { return w.frames }

// BytesPerFrame returns the on-disk size of one frame.
func (w *Writer) BytesPerFrame() int64 { return 8 + 4*int64(w.natoms)*md.FrameFields }

// Close flushes and closes the file.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Reader streams trajectory frames from a file.
type Reader struct {
	f      *os.File
	r      *bufio.Reader
	natoms int
	fields int
}

// OpenReader opens a trajectory file and parses its header.
func OpenReader(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r := &Reader{f: f, r: bufio.NewReaderSize(f, 1<<20)}
	var got [8]byte
	if _, err := io.ReadFull(r.r, got[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("trajectory: reading magic: %w", err)
	}
	if got != magic {
		f.Close()
		return nil, fmt.Errorf("trajectory: %s is not a trajectory file", path)
	}
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(r.r, hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("trajectory: reading header: %w", err)
	}
	r.natoms = int(binary.LittleEndian.Uint32(hdr[0:]))
	r.fields = int(binary.LittleEndian.Uint32(hdr[4:]))
	if r.natoms <= 0 || r.fields <= 0 {
		f.Close()
		return nil, fmt.Errorf("trajectory: corrupt header natoms=%d fields=%d", r.natoms, r.fields)
	}
	return r, nil
}

// NumAtoms returns the per-frame atom count.
func (r *Reader) NumAtoms() int { return r.natoms }

// Fields returns the number of values per atom per frame.
func (r *Reader) Fields() int { return r.fields }

// ReadFrame returns the next frame, or io.EOF after the last one.
func (r *Reader) ReadFrame() (step int64, data []float32, err error) {
	var stepBuf [8]byte
	if _, err := io.ReadFull(r.r, stepBuf[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("trajectory: reading frame step: %w", err)
	}
	step = int64(binary.LittleEndian.Uint64(stepBuf[:]))
	n := r.natoms * r.fields
	buf := make([]byte, 4*n)
	if _, err := io.ReadFull(r.r, buf); err != nil {
		return 0, nil, fmt.Errorf("trajectory: truncated frame at step %d: %w", step, err)
	}
	data = make([]float32, n)
	for i := range data {
		data[i] = bitsFloat(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return step, data, nil
}

// Close closes the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

func floatBits(f float32) uint32 { return math.Float32bits(f) }

func bitsFloat(b uint32) float32 { return math.Float32frombits(b) }
