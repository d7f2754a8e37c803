package lib

import "sync"

// Config's Unset is never set, and neither is Log, although its pointer
// methods are called; Note is set but never read; Retries is set only by
// its default. All four are reported. Width has a default too, but cmd/app
// also sets it.
type Config struct {
	Steps   int
	Unset   int
	Log     *Log
	Note    string
	Retries int
	Width   int
	Shape   Shape
}

// Shape's Side is set only by Config's withDefaults, which is not Shape's
// own: that sets it.
type Shape struct{ Side int }

func (c Config) withDefaults() Config {
	if c.Retries == 0 {
		c.Retries = 3
	}
	if c.Width == 0 {
		c.Width = 1
	}
	if c.Shape.Side == 0 {
		c.Shape.Side = 2
	}
	return c
}

type Log struct{ lines []string }

func (l *Log) Add(s string) {
	if l != nil {
		l.lines = append(l.lines, s)
	}
}

func Plan(c Config) int {
	c = c.withDefaults()
	c.Log.Add("plan")
	c.Note = "planned"
	c.Log.Add("planned")
	return c.Steps + c.Unset + c.Retries*c.Width*c.Shape.Side
}

// Lattice's eps is set only through nested index expressions.
type Lattice struct{ eps [2][2]float64 }

func (l *Lattice) Set(a, b int, v float64) { l.eps[a][b] = v }

func (l *Lattice) At(a, b int) float64 { return l.eps[a][b] }

// Counter's mu is the zero value, used only through Lock and Unlock; n is
// incremented and read, total only added to, so total is reported.
type Counter struct {
	mu    sync.Mutex
	n     int
	total int
}

func (c *Counter) Inc() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	c.total += c.n
	return c.n
}

// Stage's Name is set only inside elided composite literals.
type Stage struct{ Name string }

func Stages() map[string][]Stage { return map[string][]Stage{"a": {{Name: "x"}, {Name: "y"}}} }

// Row's fields are read only by encoding/json, through Snapshot's any result.
type Row struct {
	Label string
	Value int
}

func Snapshot() any { return []Row{{Label: "r", Value: 1}, {Label: "s", Value: 2}} }

// Cursor's Last is set only as a range target, and read only by fmt,
// through an interface-typed element.
type Cursor struct{ Last int }

func Scan(xs []int) []any {
	var c Cursor
	for c.Last = range xs {
	}
	return []any{c}
}
