package schedd

import (
	"bytes"
	"container/list"
	"hash/maphash"
	"sync"
	"time"

	"insitu/internal/core"
	"insitu/internal/obs"
)

// solved is one cached solve: everything request-agnostic about the answer.
// The recommendation, explanation, flight recorder and rendered tail are
// never mutated after the solve, so sharing one solved across concurrent
// readers is safe.
type solved struct {
	fingerprint string
	rec         *core.Recommendation
	expl        *core.Explanation // non-nil exactly for an explain request
	flight      *obs.FlightRecorder
	at          time.Time // when the solve finished
	// tail is the reply document from the comma before "objective" to its
	// last byte, rendered once (appendTail): every successful reply for this
	// solve is its own request head followed by these bytes.
	tail []byte
}

// cacheAgeBuckets grade hit ages from sub-second replays to day-old
// campaigns (seconds).
var cacheAgeBuckets = []float64{0.1, 1, 10, 60, 600, 3600, 86400}

// cache is the LRU solution cache, keyed on the scenario's canonical
// fingerprint (plus the explain bit). Hits, misses, evictions, the live
// entry count, and the age-at-hit distribution are reported on the server's
// metrics registry.
//
// Beside the key, every entry is also known by the most recent request body
// that resolved to it, so a repeat sent as the same bytes — what schedd
// client and any caller replaying a stored request sends — is answered
// before it is decoded (getBody). The index does no normalisation of its own:
// a reordered or re-indented equivalent is the fingerprint's to recognise,
// after which it becomes the remembered body.
type cache struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recently used
	m      map[string]*list.Element
	bodies map[uint64]*list.Element // hash of an entry's remembered body -> the entry
	seed   maphash.Seed
	now    func() time.Time

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	entries   *obs.Gauge
	age       *obs.Histogram
}

type cacheEntry struct {
	key  string
	val  *solved
	body []byte // a copy of the remembered body; empty = none
	sum  uint64 // its hash under cache.seed
}

func newCache(capacity int, reg *obs.Registry, now func() time.Time) *cache {
	return &cache{
		cap:       capacity,
		ll:        list.New(),
		m:         make(map[string]*list.Element),
		bodies:    make(map[uint64]*list.Element),
		seed:      maphash.MakeSeed(),
		now:       now,
		hits:      reg.Counter("schedd_cache_hits_total", nil),
		misses:    reg.Counter("schedd_cache_misses_total", nil),
		evictions: reg.Counter("schedd_cache_evictions_total", nil),
		entries:   reg.Gauge("schedd_cache_entries", nil),
		age:       reg.Histogram("schedd_cache_age_seconds", cacheAgeBuckets, nil),
	}
}

// get returns the cached solve and its age. Every call is counted as a hit
// or a miss; on a hit, body (when one is given) becomes the body the entry
// is recognised by.
func (c *cache) get(key string, body []byte) (*solved, time.Duration, bool) {
	sum, keep := c.sum(body)
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		c.misses.Inc()
		return nil, 0, false
	}
	if keep {
		c.remember(el, sum, body)
	}
	val, age := c.hit(el)
	return val, age, true
}

// getBody is get for a request still in its transport form: it answers when
// body is, byte for byte, the body some entry remembers, and counts a hit
// exactly as get does. Anything else is left uncounted for get to decide. A
// hash match alone is never trusted.
func (c *cache) getBody(body []byte) (*solved, time.Duration, bool) {
	sum, keep := c.sum(body)
	if !keep {
		return nil, 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.bodies[sum]
	if !ok || !bytes.Equal(el.Value.(*cacheEntry).body, body) {
		return nil, 0, false
	}
	val, age := c.hit(el)
	return val, age, true
}

// put inserts (or replaces) a solve, remembered by body when one is given,
// and evicts the least recently used entry past capacity.
func (c *cache) put(key string, val *solved, body []byte) {
	sum, keep := c.sum(body)
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if ok {
		c.forget(el)
		el.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(el)
	} else {
		el = c.ll.PushFront(&cacheEntry{key: key, val: val})
		c.m[key] = el
	}
	if keep {
		c.remember(el, sum, body)
	}
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.forget(last)
		c.ll.Remove(last)
		delete(c.m, last.Value.(*cacheEntry).key)
		c.evictions.Inc()
	}
	c.entries.Set(float64(c.ll.Len()))
}

// sum hashes a body worth remembering; keep is false for no body (a request
// that never had a transport form) and for one over maxRememberedBody.
func (c *cache) sum(body []byte) (sum uint64, keep bool) {
	if len(body) == 0 || len(body) > maxRememberedBody {
		return 0, false
	}
	return maphash.Bytes(c.seed, body), true
}

// hit counts one hit on el, observes its age and makes it the most recently
// used entry. Callers hold c.mu.
func (c *cache) hit(el *list.Element) (*solved, time.Duration) {
	c.ll.MoveToFront(el)
	val := el.Value.(*cacheEntry).val
	age := c.now().Sub(val.at)
	c.hits.Inc()
	c.age.Observe(age.Seconds())
	return val, age
}

// remember makes a copy of body the one body el is recognised by. Callers
// hold c.mu.
func (c *cache) remember(el *list.Element, sum uint64, body []byte) {
	c.forget(el)
	e := el.Value.(*cacheEntry)
	e.body, e.sum = append(e.body, body...), sum
	c.bodies[sum] = el
}

// forget drops el's remembered body. The index slot is cleared only while it
// still points at el: after a hash collision it belongs to the other entry.
// Callers hold c.mu.
func (c *cache) forget(el *list.Element) {
	e := el.Value.(*cacheEntry)
	if len(e.body) > 0 && c.bodies[e.sum] == el {
		delete(c.bodies, e.sum)
	}
	e.body = e.body[:0]
}
