package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Phase identifies the trace_event phase of an Event.
type Phase byte

// Event phases, a subset of the Chrome trace_event vocabulary.
const (
	PhaseComplete Phase = 'X' // a span with a start and a duration
	PhaseInstant  Phase = 'i' // a point event
	PhaseCounter  Phase = 'C' // a sampled counter value
)

// Event is one entry of a recorded timeline. Times are offsets from the
// tracer's epoch, so timelines built under an injected clock are
// deterministic.
type Event struct {
	Name  string
	Cat   string
	Phase Phase
	Track int           // rendered as the tid lane in Chrome/Perfetto
	Start time.Duration // offset from the tracer epoch
	Dur   time.Duration // only for PhaseComplete
	Args  map[string]float64
}

// Tracer records spans and events against a monotonic epoch. The zero value
// is not ready for use; call NewTracer. A nil *Tracer is a valid no-op sink.
//
// Every span, instant and counter is one 56-byte slot of a chunked store of
// 28 KiB arrays that are never re-copied. A slot holds no pointers, so the
// collector never scans a chunk: names, categories and argument keys are
// interned, and arguments past two go to a side table. A span owns its slot
// from Begin on; End seals it, and only then do Len, Events and the
// exporters see it. Readers get Args maps of their own.
type Tracer struct {
	mu         sync.Mutex
	now        func() time.Time
	epoch      time.Time
	chunks     []*[slotsPerChunk]slot
	opened     int      // slots handed out, open spans included
	sealed     int      // slots readers can see
	names      interner // (name, cat) pairs
	keys       interner // argument keys, paired with ""
	extra      []extraArg
	procName   string
	trackNames map[int]string
}

const (
	// slotsPerChunk slots of 56 bytes fill the 28 KiB size class exactly.
	slotsPerChunk = 512
	// inlineArgs arguments live in the slot itself (the runner's spans carry
	// one, step); further ones go to the side table.
	inlineArgs = 2
)

// slot is the stored form of an Event. Tracks are lane numbers and are kept
// in 32 bits.
type slot struct {
	start, dur time.Duration
	vals       [inlineArgs]float64
	name       uint32 // interned (name, cat) pair
	track      int32
	keys       [inlineArgs]uint32 // interned keys of the inline arguments
	more       uint32             // head of the extraArg list
	phase      Phase
	sealed     bool
	nargs      uint8 // inline arguments in use
}

// extraArg is an argument past a slot's inline ones; next links its slot's
// list (1 + an index in Tracer.extra; 0 ends it).
type extraArg struct {
	key, next uint32
	val       float64
}

// interner numbers distinct string pairs in first-seen order. A repeated pair
// (a call site's literal, a name built once per run) costs a string compare in
// a small set-associative cache; the map is read only when the cache misses.
type interner struct {
	ids   map[[2]string]uint32
	strs  [][2]string
	cache [8][4]struct {
		s  [2]string
		id uint32 // 1 + the pair's ID; 0 marks an empty way
	}
}

// id returns the ID of the pair (a, b), interning it on first sight. The cache
// set is picked from the lengths and end bytes, which is cheap and tells apart
// names such as "k0/analyze" and "k1/analyze".
func (in *interner) id(a, b string) uint32 {
	h := uint64(len(a)) | uint64(len(b))<<8
	if n := len(a); n > 0 {
		h |= uint64(a[0])<<16 | uint64(a[1%n])<<24 | uint64(a[n-1])<<32
	}
	set := &in.cache[h*0x9E3779B97F4A7C15>>61]
	for w := range set {
		if c := &set[w]; c.id != 0 && c.s[0] == a && c.s[1] == b {
			return c.id - 1
		}
	}
	k := [2]string{a, b}
	id, ok := in.ids[k]
	if !ok {
		id = uint32(len(in.strs))
		in.ids[k] = id
		in.strs = append(in.strs, k)
	}
	copy(set[1:], set[:len(set)-1]) // the newest pair takes the first way
	set[0].s, set[0].id = k, id+1
	return id
}

// setArg stores one argument of a slot, overwriting an earlier value of the
// same key. Callers hold t.mu.
func (t *Tracer) setArg(sl *slot, key string, v float64) {
	k := t.keys.id(key, "")
	for i := 0; i < int(sl.nargs); i++ {
		if sl.keys[i] == k {
			sl.vals[i] = v
			return
		}
	}
	if sl.nargs < inlineArgs { // a slot's extra arguments start only after its inline storage is full
		sl.keys[sl.nargs], sl.vals[sl.nargs] = k, v
		sl.nargs++
		return
	}
	for j := sl.more; j != 0; j = t.extra[j-1].next {
		if a := &t.extra[j-1]; a.key == k {
			a.val = v
			return
		}
	}
	t.extra = append(t.extra, extraArg{key: k, next: sl.more, val: v})
	sl.more = uint32(len(t.extra))
}

// event builds the reader's view of a sealed slot, with an Args map of its
// own. Callers hold t.mu.
func (t *Tracer) event(sl *slot) Event {
	p := t.names.strs[sl.name]
	e := Event{Name: p[0], Cat: p[1], Phase: sl.phase, Track: int(sl.track), Start: sl.start, Dur: sl.dur}
	if sl.nargs > 0 {
		e.Args = make(map[string]float64, int(sl.nargs))
		for i := 0; i < int(sl.nargs); i++ {
			e.Args[t.keys.strs[sl.keys[i]][0]] = sl.vals[i]
		}
		for j := sl.more; j != 0; j = t.extra[j-1].next {
			e.Args[t.keys.strs[t.extra[j-1].key][0]] = t.extra[j-1].val
		}
	}
	return e
}

// NewTracer returns a tracer whose epoch is the current wall-clock time.
func NewTracer() *Tracer {
	t := &Tracer{now: time.Now}
	t.names.ids, t.keys.ids = map[[2]string]uint32{}, map[[2]string]uint32{}
	t.epoch = t.now()
	return t
}

// SetProcessName names the pid lane in Chrome/Perfetto renderings (emitted
// as a process_name metadata event). The default is "insitu".
func (t *Tracer) SetProcessName(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.procName = name
}

// SetTrackName names a track; Chrome/Perfetto render it as the tid lane
// label (emitted as a thread_name metadata event). Unnamed tracks keep the
// bare tid.
func (t *Tracer) SetTrackName(track int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.trackNames == nil {
		t.trackNames = make(map[int]string)
	}
	t.trackNames[track] = name
}

// SetClock replaces the tracer's clock and re-anchors the epoch at the
// clock's current reading; tests use it for determinism.
func (t *Tracer) SetClock(now func() time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now = now
	t.epoch = now()
}

// open hands out the next slot — zeroed, since no slot is used twice — with
// its name, category and phase set, and its start read from at (see offset).
// Callers hold t.mu.
func (t *Tracer) open(at time.Time, name, cat string, phase Phase) (*slot, int) {
	i := t.opened
	if i == len(t.chunks)*slotsPerChunk {
		t.chunks = append(t.chunks, new([slotsPerChunk]slot))
	}
	t.opened++
	sl := t.slot(i)
	sl.name, sl.phase, sl.start = t.names.id(name, cat), phase, t.offset(at)
	return sl, i
}

// slot resolves a slot index. Callers hold t.mu.
func (t *Tracer) slot(i int) *slot { return &t.chunks[i/slotsPerChunk][i%slotsPerChunk] }

// seal makes a slot visible to readers. Callers hold t.mu.
func (t *Tracer) seal(sl *slot) {
	sl.sealed = true
	t.sealed++
}

// offset converts a clock reading to an offset from the epoch; a zero at
// reads the tracer's clock. Callers hold t.mu.
func (t *Tracer) offset(at time.Time) time.Duration {
	if at.IsZero() {
		at = t.now()
	}
	return at.Sub(t.epoch)
}

// Span is the handle of an open interval on the timeline; End closes it and
// makes it visible as a PhaseComplete event. Spans are small values: pass
// and store them as such. The zero Span is a valid no-op.
type Span struct {
	t *Tracer
	i int // slot index
}

// Begin opens a span on track 0.
func (t *Tracer) Begin(name, cat string) Span { return t.BeginAt(time.Time{}, 0, name, cat) }

// BeginOn opens a span on the given track (Chrome renders each track as one
// tid lane; use distinct tracks for concurrent actors such as staging
// workers).
func (t *Tracer) BeginOn(track int, name, cat string) Span {
	return t.BeginAt(time.Time{}, track, name, cat)
}

// BeginAt is BeginOn for a caller that has already read the clock: the span
// starts at that reading instead of at a second one. A zero at reads the
// tracer's clock.
func (t *Tracer) BeginAt(at time.Time, track int, name, cat string) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sl, i := t.open(at, name, cat, PhaseComplete)
	sl.track = int32(track)
	return Span{t: t, i: i}
}

// Arg attaches a numeric argument to the span and returns it for chaining.
// After End the span is sealed and Arg is a no-op — late writes must not
// reach readers of the timeline.
func (s Span) Arg(key string, v float64) Span {
	if s.t == nil {
		return s
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if sl := s.t.slot(s.i); !sl.sealed {
		s.t.setArg(sl, key, v)
	}
	return s
}

// End closes the span and records it. End is idempotent.
func (s Span) End() { s.EndAt(time.Time{}) }

// EndAt is End for a caller that has already read the clock; a zero at reads
// the tracer's clock.
func (s Span) EndAt(at time.Time) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	sl := s.t.slot(s.i)
	if sl.sealed {
		return
	}
	sl.dur = s.t.offset(at) - sl.start
	s.t.seal(sl)
}

// Instant records a point event on track 0. The arguments are copied: the
// caller may reuse args once Instant returns.
func (t *Tracer) Instant(name, cat string, args map[string]float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sl, _ := t.open(time.Time{}, name, cat, PhaseInstant)
	for k, v := range args {
		t.setArg(sl, k, v)
	}
	t.seal(sl)
}

// Counter records a sampled counter value; Chrome renders a stacked area
// chart per counter name.
func (t *Tracer) Counter(name string, value float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sl, _ := t.open(time.Time{}, name, "counter", PhaseCounter)
	t.setArg(sl, "value", value)
	t.seal(sl)
}

// Len returns the number of recorded events; a span counts once it has
// ended.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sealed
}

// Events returns a copy of the recorded timeline ordered by start time
// (ties broken by longer-span-first so parents sort before children). Spans
// still open are not part of it.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := t.snapshot()
	t.mu.Unlock()
	sortEvents(out)
	return out
}

// snapshot builds the events of the sealed slots in slot order. Callers hold
// t.mu.
func (t *Tracer) snapshot() []Event {
	if t.sealed == 0 {
		return nil
	}
	out := make([]Event, 0, t.sealed)
	for i := 0; i < t.opened; i++ {
		if sl := t.slot(i); sl.sealed {
			out = append(out, t.event(sl))
		}
	}
	return out
}

func sortEvents(out []Event) {
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Dur > out[j].Dur
	})
}

// micros renders a duration as trace_event microseconds (a JSON double).
func micros(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1e3)
}

// WriteChromeTrace emits the timeline in Chrome trace_event "JSON object
// format": {"traceEvents": [...]}. Load it in chrome://tracing or Perfetto.
// Event ordering and argument key ordering are deterministic. The stream
// opens with metadata events (a process_name for the pid lane, defaulting to
// "insitu", and a thread_name per track named via SetTrackName) so Perfetto
// shows labelled lanes instead of bare pids.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`+"\n")
		return err
	}
	// One critical section for names, tracks, and events: a concurrent
	// SetTrackName or span End between separate snapshots could otherwise
	// produce a stream whose events reference lanes with no metadata.
	t.mu.Lock()
	proc := t.procName
	tracks := make([]int, 0, len(t.trackNames))
	for id := range t.trackNames {
		tracks = append(tracks, id)
	}
	sort.Ints(tracks)
	names := make([]string, len(tracks))
	for i, id := range tracks {
		names[i] = t.trackNames[id]
	}
	events := t.snapshot()
	t.mu.Unlock()
	sortEvents(events)
	if proc == "" {
		proc = "insitu"
	}
	var b strings.Builder
	b.WriteString(`{"traceEvents":[`)
	procJSON, err := json.Marshal(proc)
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, `{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":%s}}`, procJSON)
	for i, id := range tracks {
		nameJSON, err := json.Marshal(names[i])
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, `,{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%s}}`, id, nameJSON)
	}
	for _, e := range events {
		b.WriteByte(',')
		nameJSON, err := json.Marshal(e.Name)
		if err != nil {
			return err
		}
		catJSON, err := json.Marshal(e.Cat)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, `{"name":%s,"cat":%s,"ph":"%c","pid":1,"tid":%d,"ts":%s`,
			nameJSON, catJSON, e.Phase, e.Track, micros(e.Start))
		if e.Phase == PhaseComplete {
			fmt.Fprintf(&b, `,"dur":%s`, micros(e.Dur))
		}
		if e.Phase == PhaseInstant {
			b.WriteString(`,"s":"t"`)
		}
		if len(e.Args) > 0 {
			b.WriteString(`,"args":{`)
			keys := make([]string, 0, len(e.Args))
			for k := range e.Args {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for ki, k := range keys {
				if ki > 0 {
					b.WriteByte(',')
				}
				keyJSON, err := json.Marshal(k)
				if err != nil {
					return err
				}
				fmt.Fprintf(&b, `%s:%g`, keyJSON, e.Args[k])
			}
			b.WriteByte('}')
		}
		b.WriteByte('}')
	}
	b.WriteString("]}\n")
	_, err = io.WriteString(w, b.String())
	return err
}
