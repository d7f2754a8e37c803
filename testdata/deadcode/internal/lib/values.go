package lib

// Scale's factor is 10 at its one call, so it is reported; Pad's n differs
// between the two programs, so it is not.
func Scale(x, factor int) int { return x * factor }

func Pad(n int) int { return n + 1 }

// Every Grid literal sets Side to 4, so it is reported; Cells varies.
type Grid struct{ Side, Cells int }

func (g Grid) Size() int { return g.Side * g.Cells }

// Every Gauge literal sets Scale to 2, but cmd/tool declares a zero Gauge.
type Gauge struct{ Scale float64 }

func (g Gauge) Reading() float64 { return g.Scale }

// Every write to a Slot's sealed stores true, but new([4]Slot) makes zero
// Slots.
type Slot struct{ sealed bool }

type Ring struct{ slots *[4]Slot }

func NewRing() *Ring { return &Ring{slots: new([4]Slot)} }

func (r *Ring) Seal(i int) { r.slots[i%4].sealed = true }

func (r *Ring) Sealed(i int) bool { return r.slots[i%4].sealed }

// The one direct call of Bucket.Put passes 7, but Fill reaches it through
// Sink with other values.
type Sink interface{ Put(n int) int }

type Bucket struct{}

func (Bucket) Put(n int) int { return n }

func Fill(s Sink, n int) int { return s.Put(n) }

// Double's one direct call passes 3, but Apply calls it as a value.
func Double(n int) int { return 2 * n }

func Apply(f func(int) int, x int) int { return f(x) }
