// Package cache implements the query result cache behind
// retrieval.WithQueryCache: a sharded, byte-bounded segmented LRU keyed
// by opaque byte strings, with singleflight request coalescing so
// concurrent identical lookups compute once.
//
// A stored value waits in a small probation list (1/64 of its shard's
// budget) and moves to the protected LRU on its first hit, so answers
// never asked for again cost at most that share and a burst of them
// cannot flush the repeated working set.
//
// Keys are whatever the caller encodes (AppendQueryKey is the retrieval
// layer's: the index epoch, topN and the sparse query). Each lookup also
// passes a generation, the epoch, and the first lookup at a newer one
// retires every older entry in O(1) per shard (a fresh map and empty
// lists), since no lookup asks for them again. An immutable index passes
// a constant generation and caches forever.
//
// Correctness under concurrent mutation is the compute callback's
// responsibility: it returns (value, cacheable) and reports cacheable =
// false when the world changed while it ran (the retrieval layer
// re-reads the epoch after the search and compares). An uncacheable
// value is still delivered to the caller and any coalesced waiters —
// it is exactly as fresh as an uncached search — it just is not stored,
// nor is one computed across a generation's retirement.
//
// Values are shared: a stored value is returned to every future hit, so
// callers must treat returned values as read-only (the retrieval layer
// stores document numbers and scores and builds each caller's results
// from them). Every method is safe for concurrent use; all methods on a
// nil *Cache are no-ops that report StatusBypass, so call sites need no
// nil checks.
package cache

import (
	"sync"
	"sync/atomic"
)

// Status is the disposition of one cache lookup.
type Status uint8

const (
	// StatusBypass reports that no cache was consulted (nil cache).
	StatusBypass Status = iota
	// StatusHit reports the value was served from the cache.
	StatusHit
	// StatusMiss reports the value was computed (and stored, if the
	// compute callback reported it cacheable).
	StatusMiss
	// StatusCoalesced reports the lookup joined an identical in-flight
	// compute and shared its result.
	StatusCoalesced
)

// String names the status in the form the Cache-Status HTTP header uses.
func (s Status) String() string {
	switch s {
	case StatusHit:
		return "hit"
	case StatusMiss:
		return "miss"
	case StatusCoalesced:
		return "coalesced"
	default:
		return "bypass"
	}
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits, Misses, Coalesced count lookups by disposition; Hits+Misses+
	// Coalesced is the total lookup count.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	// Evictions counts entries removed by the total byte bound (a
	// sustained rate means the budget is too small); ProbationEvictions
	// counts never-repeated entries aged out of the probation list, which
	// is its normal turnover. Retired counts entries dropped by a lookup
	// at a newer generation. Rejected counts computed values not stored:
	// uncacheable, or their generation retired mid-compute.
	Evictions          int64 `json:"evictions"`
	ProbationEvictions int64 `json:"probationEvictions"`
	Retired            int64 `json:"retired"`
	Rejected           int64 `json:"rejected"`
	// Entries and Bytes describe the current working set, ProbationBytes
	// the part of it not yet hit since stored; CapBytes is the configured
	// bound.
	Entries        int   `json:"entries"`
	Bytes          int64 `json:"bytes"`
	ProbationBytes int64 `json:"probationBytes"`
	CapBytes       int64 `json:"capBytes"`
}

// entry is one cached key/value pair, linked into one of its shard's two
// recency lists.
type entry[V any] struct {
	key        string
	val        V
	cost       int64
	list       *list[V] // the list e is linked into
	prev, next *entry[V]
}

// list is an intrusive recency list (front = most recently used) with
// the summed cost of its entries.
type list[V any] struct {
	front, back *entry[V]
	bytes       int64
}

func (l *list[V]) pushFront(e *entry[V]) {
	e.list, e.prev, e.next = l, nil, l.front
	if l.front != nil {
		l.front.prev = e
	} else {
		l.back = e
	}
	l.front = e
	l.bytes += e.cost
}

func (l *list[V]) remove(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.back = e.prev
	}
	e.prev, e.next = nil, nil
	l.bytes -= e.cost
}

// many reports whether the list holds two entries or more.
func (l *list[V]) many() bool { return l.front != l.back }

// flight is one in-progress compute that identical lookups coalesce on.
type flight[V any] struct {
	done chan struct{}
	val  V
	ok   bool // compute returned; false when it panicked (waiters retry)
}

// probationShare caps the probation list at 1/probationShare of a
// shard's budget (1 MiB of the 64 MiB default): lookups that never repeat
// (whole documents sent as "more like this" queries) hold at most that,
// not the whole budget (DESIGN.md §7 has the measurement). A Zipf head
// repeats well inside the window, and probation always keeps its newest
// entry, so even a tiny cache hits on a repeat.
const probationShare = 64

// shard is one lock domain: a hash-addressed segmented LRU with its own
// byte budget plus the in-flight compute table. Its entries were all
// stored at gen, the newest generation it has seen.
type shard[V any] struct {
	mu                   sync.Mutex
	gen                  uint64
	entries              map[string]*entry[V]
	flights              map[string]*flight[V]
	probation, protected list[V]
	maxBytes             int64

	evictions          atomic.Int64
	probationEvictions atomic.Int64
}

// Cache is a sharded, byte-bounded segmented LRU with request
// coalescing. Create with New; nil is the valid "no cache" instance,
// whose lookups all report StatusBypass.
type Cache[V any] struct {
	shards []shard[V]
	mask   uint64
	cost   func(V) int64

	gen       atomic.Uint64 // the newest generation all shards have reached
	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	retired   atomic.Int64
	rejected  atomic.Int64
}

// shardCount is the number of independently locked shards New splits the
// byte budget over, so concurrent lookups rarely contend.
const shardCount = 16

// New builds a cache bounded at maxBytes. cost estimates the bytes a
// value holds (key bytes and entry bookkeeping are accounted
// automatically); nil means values are costed at 0 and only keys and
// bookkeeping count against the bound. A maxBytes <= 0 returns nil — the
// valid "caching disabled" instance.
func New[V any](maxBytes int64, cost func(V) int64) *Cache[V] {
	return newCache(maxBytes, shardCount, cost)
}

// newCache is New over n shards, rounded up to a power of two so shard
// selection is a mask; tests pick n to make the LRU order observable.
func newCache[V any](maxBytes int64, n int, cost func(V) int64) *Cache[V] {
	if maxBytes <= 0 {
		return nil
	}
	p := 1
	for p < n {
		p <<= 1
	}
	c := &Cache[V]{
		shards: make([]shard[V], p),
		mask:   uint64(p - 1),
		cost:   cost,
	}
	per := max(maxBytes/int64(p), 1)
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*entry[V])
		c.shards[i].flights = make(map[string]*flight[V])
		c.shards[i].maxBytes = per
	}
	return c
}

// entryOverhead approximates the bookkeeping bytes per entry: the entry
// struct, its map slot, and the key string header.
const entryOverhead = 96

// hashKey is FNV-1a over the key bytes — deterministic, allocation-free,
// and plenty uniform for shard selection and map pre-hashing.
func hashKey(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// Do looks key up at generation gen (a newer one first retires every
// entry), computing the value on a miss via compute. Identical
// concurrent Do calls coalesce: one runs compute, the rest wait and
// share its result. compute returns (value, cacheable); an uncacheable
// value is returned to every waiter but not stored, nor is one whose
// shard moved past gen meanwhile. The returned value may be shared with
// the cache and other callers — treat it as read-only. A waiter whose
// leader's compute panicked looks the key up again as a fresh caller
// rather than sharing an answer that was never computed.
func (c *Cache[V]) Do(gen uint64, key []byte, compute func() (V, bool)) (V, Status) {
	if c == nil {
		v, _ := compute()
		return v, StatusBypass
	}
	if gen > c.gen.Load() {
		c.advance(gen)
	}
	s := &c.shards[hashKey(key)&c.mask]

	for {
		s.mu.Lock()
		if v, ok := s.lookup(key); ok {
			s.mu.Unlock()
			c.hits.Add(1)
			return v, StatusHit
		}
		f, ok := s.flights[string(key)]
		if !ok {
			break // still locked: this call leads the compute
		}
		s.mu.Unlock()
		<-f.done
		if f.ok {
			c.coalesced.Add(1)
			return f.val, StatusCoalesced
		}
	}
	f := &flight[V]{done: make(chan struct{})}
	ks := string(key) // one allocation, reused for the flight and the entry
	s.flights[ks] = f
	s.mu.Unlock()

	// The flight MUST be unregistered and its waiters released on every
	// exit, including a panicking compute — otherwise one poisoned
	// query would leave a dead flight that every future identical
	// lookup blocks on forever.
	var cacheable bool
	defer func() {
		s.mu.Lock()
		delete(s.flights, ks)
		switch {
		case f.ok && cacheable && gen == s.gen:
			s.store(ks, f.val, c.valCost(f.val))
		case f.ok:
			c.rejected.Add(1)
		}
		s.mu.Unlock()
		close(f.done)
		if f.ok {
			c.misses.Add(1)
		}
	}()
	f.val, cacheable = compute()
	f.ok = true
	return f.val, StatusMiss
}

// advance moves every shard behind gen to it, dropping its entries, and
// only then raises c.gen, so a lookup that reads c.gen >= gen finds every
// shard there. Flights stay registered and store only if their
// generation is still their shard's.
func (c *Cache[V]) advance(gen uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		if n := len(s.entries); gen > s.gen && n > 0 {
			c.retired.Add(int64(n))
			s.entries = make(map[string]*entry[V])
			s.probation, s.protected = list[V]{}, list[V]{}
		}
		s.gen = max(s.gen, gen)
		s.mu.Unlock()
	}
	for cur := c.gen.Load(); cur < gen; cur = c.gen.Load() {
		if c.gen.CompareAndSwap(cur, gen) {
			return
		}
	}
}

// valCost applies the configured value-cost estimator.
func (c *Cache[V]) valCost(v V) int64 {
	if c.cost == nil {
		return 0
	}
	return c.cost(v)
}

// store inserts the entry for ks under the shard lock and evicts past
// the bounds. Do is the only writer and stores a key once per flight,
// which no identical lookup can start while the key is cached or in
// flight, so ks is never in the map here: a new entry enters probation.
// ks must be an owned string (not an aliased []byte conversion).
func (s *shard[V]) store(ks string, v V, vcost int64) {
	e := &entry[V]{key: ks, val: v, cost: vcost + int64(len(ks)) + entryOverhead}
	s.entries[ks] = e
	s.probation.pushFront(e)
	s.evict()
}

// lookup returns the value under key and moves its entry to the front of
// the protected list — a promotion on the entry's first hit. Total bytes
// do not change, so nothing is evicted. Caller holds the shard lock.
func (s *shard[V]) lookup(key []byte) (v V, ok bool) {
	e, ok := s.entries[string(key)]
	if ok {
		if e != s.protected.front {
			e.list.remove(e)
			s.protected.pushFront(e)
		}
		v = e.val
	}
	return v, ok
}

// evict trims probation to its share of the budget, keeping its newest
// entry, then evicts until both lists fit the budget: probation's oldest
// first, protected's once probation is down to its newest entry. Caller
// holds the shard lock.
func (s *shard[V]) evict() {
	for s.probation.bytes > s.maxBytes/probationShare && s.probation.many() {
		s.drop(&s.probation, &s.probationEvictions)
	}
	for s.probation.bytes+s.protected.bytes > s.maxBytes {
		l := &s.probation
		if !s.probation.many() && s.protected.back != nil {
			l = &s.protected
		}
		s.drop(l, &s.evictions)
	}
}

// drop unlinks and unmaps l's oldest entry and counts it in n. Caller
// holds the shard lock.
func (s *shard[V]) drop(l *list[V], n *atomic.Int64) {
	e := l.back
	l.remove(e)
	delete(s.entries, e.key)
	n.Add(1)
}

// Stats snapshots the counters and working-set size.
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Retired:   c.retired.Load(),
		Rejected:  c.rejected.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		st.Evictions += s.evictions.Load()
		st.ProbationEvictions += s.probationEvictions.Load()
		s.mu.Lock()
		st.Entries += len(s.entries)
		st.Bytes += s.probation.bytes + s.protected.bytes
		st.ProbationBytes += s.probation.bytes
		st.CapBytes += s.maxBytes
		s.mu.Unlock()
	}
	return st
}
