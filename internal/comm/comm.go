// Package comm is a message-passing runtime that plays the role MPI plays in
// the paper's applications. Ranks are goroutines inside one process; they
// exchange tagged messages through mailboxes and implement the one collective
// the analysis kernels need, Allreduce, as a reduce to rank 0 and a broadcast
// over binomial trees, so communication volume and depth behave like real
// MPI implementations.
//
// The package also provides AllreduceTime, an analytic latency/bandwidth/hops
// cost model parameterized by torus diameter. The paper predicts collective
// time via bilinear interpolation with network diameter as the y-variable
// (§4, Figure 2); AllreduceTime is the ground truth that experiment
// reproduces.
package comm

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// message is a tagged payload in flight between two ranks.
type message struct {
	from, tag int
	data      []float64
}

// mailbox is a rank's incoming message queue with blocking matched receive.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []message
	closed  bool
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(m message) {
	mb.mu.Lock()
	mb.pending = append(mb.pending, m)
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// take blocks until a message matching (from, tag) is available and removes
// it. from == AnySource matches any sender.
func (mb *mailbox) take(from, tag int) (message, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		for i, m := range mb.pending {
			if (from == AnySource || m.from == from) && m.tag == tag {
				mb.pending = append(mb.pending[:i], mb.pending[i+1:]...)
				return m, nil
			}
		}
		if mb.closed {
			return message{}, fmt.Errorf("comm: world shut down while waiting for message from=%d tag=%d", from, tag)
		}
		mb.cond.Wait()
	}
}

func (mb *mailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// AnySource matches messages from any rank in Recv.
const AnySource = -1

// World is a fixed-size group of ranks.
type World struct {
	size  int
	boxes []*mailbox
}

// NewWorld creates a world with the given number of ranks.
func NewWorld(size int) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("comm: world size %d", size)
	}
	w := &World{size: size, boxes: make([]*mailbox, size)}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	return w, nil
}

// Run executes fn concurrently on every rank and waits for all of them. The
// first non-nil error is returned; if any rank fails, mailboxes are closed so
// blocked ranks unwind instead of deadlocking. A World whose Run returned an
// error stays shut down: a later Recv on it fails unless its message is
// already queued.
func (w *World) Run(fn func(r *Rank) error) error {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	var once sync.Once
	for i := 0; i < w.size; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := fn(&Rank{id: id, w: w}); err != nil {
				errs[id] = err
				once.Do(func() {
					for _, mb := range w.boxes {
						mb.close()
					}
				})
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Rank is one participant in a World. All methods are collective or
// point-to-point operations in MPI style.
type Rank struct {
	id int
	w  *World
}

// ID returns the rank's index in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return r.w.size }

// Send delivers data to rank `to` with the given tag. The slice is copied,
// so the caller may reuse it immediately.
func (r *Rank) Send(to, tag int, data []float64) {
	if to < 0 || to >= r.w.size {
		panic(fmt.Sprintf("comm: send to rank %d of %d", to, r.w.size))
	}
	cp := append([]float64(nil), data...)
	r.w.boxes[to].put(message{from: r.id, tag: tag, data: cp})
}

// Recv blocks until a message with the given tag arrives from rank `from`
// (or any rank if from == AnySource) and returns its payload and sender.
func (r *Rank) Recv(from, tag int) ([]float64, int, error) {
	m, err := r.w.boxes[r.id].take(from, tag)
	if err != nil {
		return nil, -1, err
	}
	return m.data, m.from, nil
}

// Op is a reduction operator over float64 vectors.
type Op func(dst, src []float64)

// Sum accumulates src into dst elementwise.
func Sum(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// Max keeps the elementwise maximum in dst.
func Max(dst, src []float64) {
	for i := range dst {
		if src[i] > dst[i] {
			dst[i] = src[i]
		}
	}
}

// Min keeps the elementwise minimum in dst.
func Min(dst, src []float64) {
	for i := range dst {
		if src[i] < dst[i] {
			dst[i] = src[i]
		}
	}
}

// Tags of Allreduce's two phases. Callers' Send/Recv tags are non-negative,
// so these reserved negative tags never match one.
const (
	tagReduce = -1000 - iota
	tagBcast
)

// Allreduce combines vals across all ranks with op and returns the result on
// every rank (reduce + broadcast).
func (r *Rank) Allreduce(vals []float64, op Op) ([]float64, error) {
	red, err := r.reduceTree(vals, op)
	if err != nil {
		return nil, err
	}
	return r.bcastTree(red)
}

// reduceTree reduces vals onto rank 0 over a binomial tree. Returns the
// reduced vector at rank 0 (nil elsewhere).
func (r *Rank) reduceTree(vals []float64, op Op) ([]float64, error) {
	p := r.w.size
	acc := append([]float64(nil), vals...)
	for mask := 1; mask < p; mask <<= 1 {
		if r.id&mask != 0 {
			r.Send(r.id&^mask, tagReduce, acc)
			return nil, nil
		}
		if partner := r.id | mask; partner < p {
			data, _, err := r.Recv(partner, tagReduce)
			if err != nil {
				return nil, err
			}
			if len(acc) == 0 {
				acc = data
			} else {
				op(acc, data)
			}
		}
	}
	return acc, nil
}

// bcastTree broadcasts rank 0's vals over a binomial tree and returns the
// received vector on every rank.
func (r *Rank) bcastTree(vals []float64) ([]float64, error) {
	p := r.w.size
	data := vals
	// Find the highest mask at which this rank receives.
	mask := 1
	for mask < p {
		if r.id&mask != 0 {
			got, _, err := r.Recv(r.id&^mask, tagBcast)
			if err != nil {
				return nil, err
			}
			data = got
			break
		}
		mask <<= 1
	}
	// Forward to children below the receiving mask.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if child := r.id | mask; child < p {
			r.Send(child, tagBcast, data)
		}
	}
	return data, nil
}

// The interconnect cost model is a Blue Gene/Q-like 5D torus: per-message
// software latency, per-hop wire latency, and link bandwidth.
const (
	netAlpha       = 1200 * time.Nanosecond
	netPerHop      = 40 * time.Nanosecond
	netBytesPerSec = 1.8e9
)

// AllreduceTime returns the modeled time of an allreduce of `bytes` per rank
// across `ranks` ranks on a torus with the given diameter: 2·log2(P) message
// rounds, each crossing up to the diameter, moving 2·bytes total per link.
// Collective times follow the standard log-tree alpha-beta model plus a
// diameter term, which is the dependence the paper exploits when it
// interpolates communication time over network diameter.
func AllreduceTime(bytes int64, ranks, diameter int) time.Duration {
	if ranks <= 1 {
		return 0
	}
	rounds := 2 * math.Ceil(math.Log2(float64(ranks)))
	t := rounds*float64(netAlpha) +
		float64(diameter)*float64(netPerHop)*2 +
		2*float64(bytes)/netBytesPerSec*float64(time.Second)
	return time.Duration(t)
}
