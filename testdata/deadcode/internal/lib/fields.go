package lib

import "sync"

// Config's Unset is never set, and neither is Log, although its pointer
// methods are called; Note is set but never read. All three are reported.
type Config struct {
	Steps int
	Unset int
	Log   *Log
	Note  string
}

type Log struct{ lines []string }

func (l *Log) Add(s string) {
	if l != nil {
		l.lines = append(l.lines, s)
	}
}

func Plan(c Config) int {
	c.Log.Add("plan")
	c.Note = "planned"
	return c.Steps + c.Unset
}

// Lattice's eps is set only through nested index expressions.
type Lattice struct{ eps [2][2]float64 }

func (l *Lattice) Set(a, b int, v float64) { l.eps[a][b] = v }

func (l *Lattice) At(a, b int) float64 { return l.eps[a][b] }

// Counter's mu is the zero value, used only through Lock and Unlock.
type Counter struct {
	mu sync.Mutex
	n  int
}

func (c *Counter) Inc() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return c.n
}

// Stage's Name is set only inside elided composite literals.
type Stage struct{ Name string }

func Stages() map[string][]Stage { return map[string][]Stage{"a": {{Name: "x"}}} }

// Row's fields are read only by encoding/json, through Snapshot's any result.
type Row struct {
	Label string
	Value int
}

func Snapshot() any { return []Row{{Label: "r", Value: 1}} }

// Cursor's Last is set only as a range target, and read only by fmt,
// through an interface-typed element.
type Cursor struct{ Last int }

func Scan(xs []int) []any {
	var c Cursor
	for c.Last = range xs {
	}
	return []any{c}
}
