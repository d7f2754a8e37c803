package comm

import (
	"fmt"
	"math"
	"testing"
	"time"
)

func run(t *testing.T, size int, fn func(r *Rank) error) {
	t.Helper()
	w, err := NewWorld(size)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(fn); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecv(t *testing.T) {
	run(t, 2, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 7, []float64{1, 2, 3})
			return nil
		}
		data, from, err := r.Recv(0, 7)
		if err != nil {
			return err
		}
		if from != 0 || len(data) != 3 || data[2] != 3 {
			return fmt.Errorf("got %v from %d", data, from)
		}
		return nil
	})
}

func TestSendCopiesPayload(t *testing.T) {
	run(t, 2, func(r *Rank) error {
		if r.ID() == 0 {
			buf := []float64{1}
			r.Send(1, 0, buf)
			buf[0] = 99 // must not affect the receiver
			return nil
		}
		data, _, err := r.Recv(0, 0)
		if err != nil {
			return err
		}
		if data[0] != 1 {
			return fmt.Errorf("payload mutated after send: %v", data)
		}
		return nil
	})
}

func TestRecvAnySource(t *testing.T) {
	run(t, 4, func(r *Rank) error {
		if r.ID() != 0 {
			r.Send(0, 1, []float64{float64(r.ID())})
			return nil
		}
		seen := map[int]bool{}
		for i := 0; i < 3; i++ {
			data, from, err := r.Recv(AnySource, 1)
			if err != nil {
				return err
			}
			if int(data[0]) != from {
				return fmt.Errorf("payload %v does not match sender %d", data, from)
			}
			seen[from] = true
		}
		if len(seen) != 3 {
			return fmt.Errorf("saw %d senders", len(seen))
		}
		return nil
	})
}

func TestTagMatching(t *testing.T) {
	run(t, 2, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 5, []float64{5})
			r.Send(1, 4, []float64{4})
			return nil
		}
		// Receive out of send order by tag.
		d4, _, err := r.Recv(0, 4)
		if err != nil {
			return err
		}
		d5, _, err := r.Recv(0, 5)
		if err != nil {
			return err
		}
		if d4[0] != 4 || d5[0] != 5 {
			return fmt.Errorf("tag matching broken: %v %v", d4, d5)
		}
		return nil
	})
}

func TestAllreduceSum(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5, 8, 16} {
		size := size
		t.Run(fmt.Sprintf("p%d", size), func(t *testing.T) {
			run(t, size, func(r *Rank) error {
				in := []float64{float64(r.ID() + 1), 1}
				out, err := r.Allreduce(in, Sum)
				if err != nil {
					return err
				}
				wantSum := float64(size*(size+1)) / 2
				if out[0] != wantSum || out[1] != float64(size) {
					return fmt.Errorf("rank %d: allreduce = %v, want [%g %d]", r.ID(), out, wantSum, size)
				}
				return nil
			})
		})
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	run(t, 7, func(r *Rank) error {
		v := float64(r.ID())
		mx, err := r.Allreduce([]float64{v}, Max)
		if err != nil {
			return err
		}
		mn, err := r.Allreduce([]float64{v}, Min)
		if err != nil {
			return err
		}
		if mx[0] != 6 || mn[0] != 0 {
			return fmt.Errorf("max=%v min=%v", mx, mn)
		}
		return nil
	})
}

func TestRepeatedCollectives(t *testing.T) {
	// Many iterations across ranks with different speeds must not cross-talk.
	run(t, 6, func(r *Rank) error {
		for iter := 0; iter < 50; iter++ {
			out, err := r.Allreduce([]float64{float64(iter)}, Sum)
			if err != nil {
				return err
			}
			if out[0] != float64(6*iter) {
				return fmt.Errorf("iter %d: %v", iter, out)
			}
			// A barrier: an allreduce of nothing.
			if _, err := r.Allreduce(nil, Sum); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestRunPropagatesError(t *testing.T) {
	w, err := NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *Rank) error {
		if r.ID() == 1 {
			return fmt.Errorf("boom")
		}
		// Other ranks block on a message that never comes; the error path
		// must close mailboxes so they unwind.
		_, _, err := r.Recv(1, 99)
		return err
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestWorldSizeValidation(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Fatal("expected error for size 0")
	}
}

func TestNetworkModelMonotone(t *testing.T) {
	if AllreduceTime(8, 1, 0) != 0 {
		t.Fatal("single-rank allreduce must be free")
	}
	t16 := AllreduceTime(1024, 16, 4)
	t1k := AllreduceTime(1024, 1024, 12)
	if t1k <= t16 {
		t.Fatalf("allreduce time must grow with scale: %v vs %v", t16, t1k)
	}
	big := AllreduceTime(1<<20, 1024, 12)
	if big <= t1k {
		t.Fatalf("allreduce time must grow with bytes: %v vs %v", t1k, big)
	}
}

func TestNetworkModelDiameterDependence(t *testing.T) {
	small := AllreduceTime(8, 512, 9)
	large := AllreduceTime(8, 512, 20)
	if large <= small {
		t.Fatalf("allreduce time must grow with diameter: %v vs %v", small, large)
	}
	// The diameter contribution for tiny payloads should dominate bandwidth.
	if large-small != time.Duration(2*11*int64(netPerHop)) {
		t.Fatalf("diameter delta = %v", large-small)
	}
}

func TestAllreduceValueStability(t *testing.T) {
	// Summation order varies with tree shape; for same inputs the result
	// must still be exact for integers well within float64 precision.
	run(t, 9, func(r *Rank) error {
		v := math.Ldexp(1, r.ID()) // 1,2,4,...,256
		out, err := r.Allreduce([]float64{v}, Sum)
		if err != nil {
			return err
		}
		if out[0] != 511 {
			return fmt.Errorf("sum = %v", out[0])
		}
		return nil
	})
}
