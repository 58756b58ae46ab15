package cache

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func key(s string) []byte { return []byte(s) }

// Get looks key up without computing; the boolean reports a hit, counted
// as Do counts one, and a probe of an absent key counts a miss. It is the
// tests' window onto what Do stored. It needs no generation: an advance
// empties every shard before it raises the cache's generation, so between
// lookups a shard holds only entries of the cache's current generation.
func (c *Cache[V]) Get(key []byte) (V, bool) {
	if c == nil {
		return *new(V), false
	}
	s := &c.shards[hashKey(key)&c.mask]
	s.mu.Lock()
	v, ok := s.lookup(key)
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Put stores v under key the only way the cache stores anything: as a
// Do whose compute returns v, at the cache's current generation, so it
// stores whatever generation earlier lookups moved the cache to. A cached
// key is hit and keeps its value; a key in flight waits for the flight.
func (c *Cache[V]) Put(key []byte, v V) {
	var gen uint64
	if c != nil {
		gen = c.gen.Load()
	}
	c.Do(gen, key, func() (V, bool) { return v, true })
}

func TestDoHitMissAndCounters(t *testing.T) {
	c := New[int](1<<20, nil)
	calls := 0
	compute := func(v int) func() (int, bool) {
		return func() (int, bool) { calls++; return v, true }
	}

	v, st := c.Do(0, key("a"), compute(1))
	if v != 1 || st != StatusMiss {
		t.Fatalf("first lookup: got (%d, %v), want (1, miss)", v, st)
	}
	v, st = c.Do(0, key("a"), compute(99))
	if v != 1 || st != StatusHit {
		t.Fatalf("second lookup: got (%d, %v), want cached (1, hit)", v, st)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	v, st = c.Do(0, key("b"), compute(2))
	if v != 2 || st != StatusMiss {
		t.Fatalf("distinct key: got (%d, %v), want (2, miss)", v, st)
	}
	st2 := c.Stats()
	if st2.Hits != 1 || st2.Misses != 2 || st2.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses / 2 entries", st2)
	}
}

func TestUncacheableValueIsDeliveredButNotStored(t *testing.T) {
	c := New[int](1<<20, nil)
	v, st := c.Do(0, key("k"), func() (int, bool) { return 7, false })
	if v != 7 || st != StatusMiss {
		t.Fatalf("got (%d, %v), want (7, miss)", v, st)
	}
	if c.Stats().Entries != 0 {
		t.Fatalf("uncacheable value was stored (%d entries)", c.Stats().Entries)
	}
	if got := c.Stats().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	// The next lookup recomputes.
	v, st = c.Do(0, key("k"), func() (int, bool) { return 8, true })
	if v != 8 || st != StatusMiss {
		t.Fatalf("recompute: got (%d, %v), want (8, miss)", v, st)
	}
}

func TestNilCacheBypasses(t *testing.T) {
	var c *Cache[int]
	v, st := c.Do(0, key("k"), func() (int, bool) { return 5, true })
	if v != 5 || st != StatusBypass {
		t.Fatalf("nil Do: got (%d, %v), want (5, bypass)", v, st)
	}
	if _, ok := c.Get(key("k")); ok {
		t.Fatal("nil Get reported a hit")
	}
	c.Put(key("k"), 1)
	if c.Stats() != (Stats{}) {
		t.Fatal("nil cache accumulated state")
	}
	if New[int](0, nil) != nil {
		t.Fatal("maxBytes <= 0 should construct the nil (disabled) cache")
	}
}

func TestLRUEvictionBound(t *testing.T) {
	// One shard so the LRU order is observable; budget fits ~4 entries.
	// Each entry is hit once after it is stored, so it is promoted to the
	// protected list, where the budget bound (not probation's) applies.
	costPer := int64(entryOverhead + 3) // 3-byte keys, zero-cost values
	c := newCache[int](4*costPer, 1, nil)
	for i := 0; i < 8; i++ {
		c.Put(key(fmt.Sprintf("k%02d", i)), i)
		c.Get(key(fmt.Sprintf("k%02d", i)))
	}
	st := c.Stats()
	if st.Entries != 4 {
		t.Fatalf("entries = %d, want 4 (bounded)", st.Entries)
	}
	if st.Evictions != 4 {
		t.Fatalf("evictions = %d, want 4", st.Evictions)
	}
	if st.Bytes > st.CapBytes {
		t.Fatalf("bytes %d exceed cap %d", st.Bytes, st.CapBytes)
	}
	// Oldest entries are gone, newest survive.
	if _, ok := c.Get(key("k00")); ok {
		t.Fatal("k00 should have been evicted")
	}
	if v, ok := c.Get(key("k07")); !ok || v != 7 {
		t.Fatalf("k07: got (%d, %v), want (7, true)", v, ok)
	}
	// Touch k04 (now LRU-warm), insert one more: k05 is the coldest and
	// must be the one evicted.
	if _, ok := c.Get(key("k04")); !ok {
		t.Fatal("k04 missing before touch test")
	}
	c.Put(key("new"), 100)
	if _, ok := c.Get(key("k04")); !ok {
		t.Fatal("recently touched k04 was evicted before colder entries")
	}
	if _, ok := c.Get(key("k05")); ok {
		t.Fatal("coldest entry k05 survived past the bound")
	}
}

func TestValueCostDrivesEviction(t *testing.T) {
	c := newCache[[]byte](4096, 1, func(v []byte) int64 { return int64(len(v)) })
	big := make([]byte, 3000)
	c.Put(key("big1"), big)
	c.Get(key("big1"))      // promoted: out of probation's reach
	c.Put(key("big2"), big) // cannot coexist with big1 under 4096
	if got := c.Stats().Evictions; got != 1 {
		t.Fatalf("budget evictions = %d, want 1", got)
	}
	if got := c.Stats().Entries; got != 1 {
		t.Fatalf("entries = %d, want 1 (value cost must count)", got)
	}
}

func TestCoalescingSharesOneCompute(t *testing.T) {
	c := New[int](1<<20, nil)
	const waiters = 16
	var calls atomic.Int32
	gate := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]int, waiters)
	statuses := make([]Status, waiters)
	// Leader occupies the flight until gate opens.
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], statuses[0] = c.Do(0, key("k"), func() (int, bool) {
			calls.Add(1)
			close(started)
			<-gate
			return 42, true
		})
	}()
	<-started
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], statuses[i] = c.Do(0, key("k"), func() (int, bool) {
				calls.Add(1)
				return 42, true
			})
		}(i)
	}
	// The flight was registered before started closed, so every waiter
	// joins it rather than computing.
	close(gate)
	wg.Wait()

	if got := calls.Load(); got < 1 {
		t.Fatalf("compute ran %d times", got)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("waiter %d got %d, want 42", i, v)
		}
	}
	if statuses[0] != StatusMiss {
		t.Fatalf("leader status %v, want miss", statuses[0])
	}
	st := c.Stats()
	if st.Coalesced+st.Hits != waiters-1 {
		t.Fatalf("%d coalesced + %d hits, want %d waiters accounted", st.Coalesced, st.Hits, waiters-1)
	}
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times, want exactly 1 (coalesced)", calls.Load())
	}
}

func TestShardRoundingAndDistribution(t *testing.T) {
	c := newCache[int](1<<20, 5, nil)
	if got := len(c.shards); got != 8 {
		t.Fatalf("5 shards rounded to %d, want 8", got)
	}
	for i := 0; i < 1000; i++ {
		c.Put(key(fmt.Sprintf("key-%d", i)), i)
		c.Get(key(fmt.Sprintf("key-%d", i))) // promote past probation
	}
	if got := c.Stats().Entries; got != 1000 {
		t.Fatalf("entries = %d, want 1000", got)
	}
	// No shard should hold everything (FNV should spread keys).
	for i := range c.shards {
		if n := len(c.shards[i].entries); n == 1000 {
			t.Fatalf("all entries landed in shard %d", i)
		}
	}
}

// TestPanickingComputeReleasesTheFlight pins the flight-cleanup defer:
// a compute that panics must unregister its flight and release waiters,
// or one poisoned query would deadlock every future identical lookup.
func TestPanickingComputeReleasesTheFlight(t *testing.T) {
	c := New[int](1<<20, nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate out of Do")
			}
		}()
		c.Do(0, key("k"), func() (int, bool) { panic("poisoned query") })
	}()
	// The key must be fully usable again: no dead flight to block on,
	// nothing stored, no rejected/miss accounting for the aborted call.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if v, st := c.Do(0, key("k"), func() (int, bool) { return 9, true }); v != 9 || st != StatusMiss {
			t.Errorf("post-panic lookup: got (%d, %v), want (9, miss)", v, st)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("post-panic lookup blocked on a leaked flight")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Rejected != 0 {
		t.Fatalf("counters after panic+retry = %+v, want 1 miss, 0 rejected", st)
	}
}

// checkShard re-derives a shard's accounting from scratch — the map sum
// and a walk of both lists, links checked both ways — and fails unless
// it matches the maintained totals exactly, every linked entry is the
// mapped one on the list its flag names, and probation is within its
// share or down to one entry. Caller holds the shard lock.
func checkShard(t *testing.T, s *shard[int]) {
	t.Helper()
	var mapSum int64
	for _, e := range s.entries {
		mapSum += e.cost
	}
	linked := 0
	for _, l := range []*list[int]{&s.probation, &s.protected} {
		var walk int64
		var prev *entry[int]
		for e := l.front; e != nil; prev, e = e, e.next {
			if e.prev != prev || s.entries[e.key] != e || e.list != l {
				t.Fatalf("entry %q is mislinked, unmapped or on the wrong list", e.key)
			}
			walk += e.cost
			linked++
		}
		if l.back != prev || walk != l.bytes {
			t.Fatalf("list walks to %d bytes, accounts %d (or its back is stale)", walk, l.bytes)
		}
	}
	if linked != len(s.entries) || mapSum != s.probation.bytes+s.protected.bytes {
		t.Fatalf("lists link %d entries / %d bytes, map has %d entries / %d bytes (orphaned entry)",
			linked, s.probation.bytes+s.protected.bytes, len(s.entries), mapSum)
	}
	if s.probation.bytes > s.maxBytes/probationShare && s.probation.many() {
		t.Fatalf("probation holds %d bytes over its %d-byte share", s.probation.bytes, s.maxBytes/probationShare)
	}
}

// TestWaitersOfPanickingComputeRecompute: a lookup parked on a flight
// whose compute panics must not share the never-computed zero value (as
// a "coalesced" empty answer); it looks the key up again as a fresh
// caller and computes.
func TestWaitersOfPanickingComputeRecompute(t *testing.T) {
	c := New[int](1<<20, nil)
	started, gate := make(chan struct{}), make(chan struct{})
	go func() {
		defer func() { _ = recover() }()
		c.Do(0, key("k"), func() (int, bool) {
			close(started)
			<-gate
			panic("poisoned query")
		})
	}()
	<-started
	type answer struct {
		v  int
		st Status
	}
	got := make(chan answer, 1)
	go func() {
		v, st := c.Do(0, key("k"), func() (int, bool) { return 9, true })
		got <- answer{v, st}
	}()
	waitParked(t)
	close(gate)
	select {
	case a := <-got:
		if a.v != 9 || a.st != StatusMiss {
			t.Fatalf("waiter of the panicked flight got (%d, %v), want its own (9, miss)", a.v, a.st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter of the panicked flight never returned")
	}
	if st := c.Stats(); st.Misses != 1 || st.Coalesced != 0 {
		t.Fatalf("counters = %+v, want 1 miss, 0 coalesced", st)
	}
	if v, ok := c.Get(key("k")); !ok || v != 9 {
		t.Fatalf("stored value (%d, %v), want (9, true)", v, ok)
	}
}

// waitParked returns once some goroutine is blocked on a channel receive
// with Do itself as its innermost frame: a waiter on a flight. (A leader
// blocked inside its compute has the compute's frame on top.)
func waitParked(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			lines := strings.SplitN(g, "\n", 3)
			if len(lines) > 1 && strings.Contains(lines[0], "[chan receive") && strings.Contains(lines[1], ").Do(") {
				return
			}
		}
	}
	t.Fatal("no lookup parked on the flight")
}

// segmentedCache is a one-shard cache whose values each cost 1000 bytes,
// so an entry with a short key costs ~1.1 KB against a 64 KiB budget
// (a 1 KiB probation share).
func segmentedCache() *Cache[int] {
	return newCache[int](64<<10, 1, func(int) int64 { return 1000 })
}

// oneShots looks up distinct never-repeated keys until their stored
// cost reaches n times the budget.
func oneShots(c *Cache[int], prefix string, n int64) {
	budget := c.Stats().CapBytes
	for i, stored := 0, int64(0); stored < n*budget; i++ {
		k := key(fmt.Sprintf("%s-%d", prefix, i))
		c.Do(0, k, func() (int, bool) { return i, true })
		stored += c.valCost(i) + int64(len(k)) + entryOverhead
	}
}

// TestOneShotStreamStaysInProbation: distinct keys that never repeat —
// ten budgets' worth — occupy at most the probation share plus its
// newest entry, reach no protected slot, and force no budget eviction.
func TestOneShotStreamStaysInProbation(t *testing.T) {
	c := segmentedCache()
	oneShots(c, "doc", 10)
	st := c.Stats()
	maxEntry := int64(1000 + len("doc-99999") + entryOverhead)
	if st.ProbationBytes > st.CapBytes/probationShare+maxEntry {
		t.Fatalf("probation holds %d bytes, want <= %d + one entry", st.ProbationBytes, st.CapBytes/probationShare)
	}
	if st.Bytes != st.ProbationBytes || c.shards[0].protected.front != nil {
		t.Fatalf("protected list holds %d bytes of one-shot answers", st.Bytes-st.ProbationBytes)
	}
	if st.Evictions != 0 || st.ProbationEvictions != st.Misses-int64(st.Entries) {
		t.Fatalf("evictions = %d budget / %d probation, want 0 / %d", st.Evictions, st.ProbationEvictions, st.Misses-int64(st.Entries))
	}
}

// TestScanResistance: a repeated working set (half the budget, each key
// hit once) survives a burst of one-shot lookups ten budgets long.
func TestScanResistance(t *testing.T) {
	c := segmentedCache()
	const hot = 28 // ~31 KB of the 64 KiB budget
	for i := 0; i < hot; i++ {
		for r := 0; r < 2; r++ {
			c.Do(0, key(fmt.Sprintf("hot-%d", i)), func() (int, bool) { return i, true })
		}
	}
	oneShots(c, "burst", 10)
	for i := 0; i < hot; i++ {
		if v, ok := c.Get(key(fmt.Sprintf("hot-%d", i))); !ok || v != i {
			t.Fatalf("working-set key hot-%d flushed by the burst", i)
		}
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("budget evictions = %d, want 0", st.Evictions)
	}
}

// TestBudgetEvictsProbationFirst: with a working set filling the whole
// budget, one-shot lookups small enough that probation holds several of
// them displace one protected entry in all, not one each: past the
// budget, probation's oldest go before protected's.
func TestBudgetEvictsProbationFirst(t *testing.T) {
	c := newCache[int](64<<10, 1, nil) // ~103 B an entry
	hot := 0
	for ; c.Stats().Bytes+entryOverhead+7 <= 64<<10; hot++ {
		for r := 0; r < 2; r++ {
			c.Do(0, key(fmt.Sprintf("hot-%03d", hot)), func() (int, bool) { return hot, true })
		}
	}
	oneShots(c, "one", 1)
	kept := 0
	for i := 0; i < hot; i++ {
		if _, ok := c.Get(key(fmt.Sprintf("hot-%03d", i))); ok {
			kept++
		}
	}
	if kept < hot-1 {
		t.Fatalf("one-shot lookups displaced %d of %d protected entries, want at most 1", hot-kept, hot)
	}
}

// TestHitPromotes: a stored answer sits in probation until its first
// hit moves it to the protected list.
func TestHitPromotes(t *testing.T) {
	c := segmentedCache()
	c.Do(0, key("q"), func() (int, bool) { return 1, true })
	s := &c.shards[0]
	if e := s.entries["q"]; e == nil || e.list != &s.probation || c.Stats().ProbationBytes != e.cost {
		t.Fatal("a fresh entry is not on probation")
	}
	if _, st := c.Do(0, key("q"), func() (int, bool) { return 2, true }); st != StatusHit {
		t.Fatalf("second lookup %v, want hit", st)
	}
	if e := s.entries["q"]; e.list != &s.protected || s.protected.front != e || c.Stats().ProbationBytes != 0 {
		t.Fatal("a hit did not promote the entry to the front of the protected list")
	}
}

// TestTinyCacheSecondLookupHits: at a 1 KiB budget the probation share
// (16 bytes) is smaller than any entry, yet probation keeps its newest
// entry, so a repeat still hits.
func TestTinyCacheSecondLookupHits(t *testing.T) {
	c := newCache[int](1<<10, 1, nil)
	for _, k := range []string{"a", "b", "c"} {
		c.Do(0, key(k), func() (int, bool) { return 1, true })
		if _, st := c.Do(0, key(k), func() (int, bool) { return 2, true }); st != StatusHit {
			t.Fatalf("repeat of %q: %v, want hit", k, st)
		}
	}
}

// TestPutEntersProbationAndGetPromotes: a stored value lands in
// probation and a probe that hits it promotes it.
func TestPutEntersProbationAndGetPromotes(t *testing.T) {
	c := segmentedCache()
	c.Put(key("b"), 1)
	s := &c.shards[0]
	if s.entries["b"].list != &s.probation {
		t.Fatal("Put stored straight into the protected list")
	}
	if v, ok := c.Get(key("b")); !ok || v != 1 || s.entries["b"].list != &s.protected {
		t.Fatal("Get hit did not promote the Put entry")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	checkShard(t, s)
}

// TestNewerGenerationRetiresEntries: the first lookup at a newer
// generation empties every shard — entries, bytes and probation bytes go
// to 0 — and counts what it dropped in Retired; an older generation's
// lookup retires nothing.
func TestNewerGenerationRetiresEntries(t *testing.T) {
	c := newCache[int](1<<20, 4, func(int) int64 { return 100 })
	for i := 0; i < 20; i++ {
		c.Do(1, key(fmt.Sprintf("g1-%d", i)), func() (int, bool) { return i, true })
	}
	c.Do(1, key("g1-0"), func() (int, bool) { return -1, true }) // promote one
	if st := c.Stats(); st.Entries != 20 || st.Bytes == 0 || st.ProbationBytes == 0 || st.Retired != 0 {
		t.Fatalf("before the advance: %+v", st)
	}
	c.Do(0, key("g0"), func() (int, bool) { return 0, true })
	if st := c.Stats(); st.Entries != 20 || st.Retired != 0 || st.Rejected != 1 {
		t.Fatalf("an older generation's lookup changed the working set: %+v", st)
	}
	if _, st := c.Do(2, key("g1-1"), func() (int, bool) { return 7, false }); st != StatusMiss {
		t.Fatalf("a retired entry answered the next generation: %v", st)
	}
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 || st.ProbationBytes != 0 || st.Retired != 20 {
		t.Fatalf("after the advance: %+v, want an empty cache and 20 retired", st)
	}
	for i := range c.shards {
		s := &c.shards[i]
		if s.gen != 2 {
			t.Fatalf("shard %d at generation %d, want 2", i, s.gen)
		}
		checkShard(t, s)
	}
	// Retiring again at the same generation is a no-op.
	c.Do(2, key("g2"), func() (int, bool) { return 1, true })
	if st := c.Stats(); st.Entries != 1 || st.Retired != 20 {
		t.Fatalf("a second lookup at the same generation: %+v", st)
	}
}

// TestOneGenerationKeepsHitsAndCoalescing: at any one generation, a
// repeat hits and identical concurrent lookups share one compute, as at
// generation 0.
func TestOneGenerationKeepsHitsAndCoalescing(t *testing.T) {
	c := New[int](1<<20, nil)
	const gen = 9
	if _, st := c.Do(gen, key("a"), func() (int, bool) { return 1, true }); st != StatusMiss {
		t.Fatalf("first lookup %v, want miss", st)
	}
	if v, st := c.Do(gen, key("a"), func() (int, bool) { return 2, true }); v != 1 || st != StatusHit {
		t.Fatalf("repeat (%d, %v), want (1, hit)", v, st)
	}
	started, gate := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do(gen, key("b"), func() (int, bool) { close(started); <-gate; return 3, true })
	}()
	<-started
	got := make(chan Status, 1)
	go func() {
		_, st := c.Do(gen, key("b"), func() (int, bool) { return 4, true })
		got <- st
	}()
	waitParked(t)
	close(gate)
	wg.Wait()
	if st := <-got; st != StatusCoalesced {
		t.Fatalf("identical concurrent lookup %v, want coalesced", st)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 2 || st.Coalesced != 1 || st.Entries != 2 || st.Retired != 0 {
		t.Fatalf("counters %+v", st)
	}
}

// TestFlightStraddlingAnAdvanceIsNotStored: a compute that returns after
// a lookup moved its shard to a newer generation still answers its
// caller, but its value is not stored and counts as rejected.
func TestFlightStraddlingAnAdvanceIsNotStored(t *testing.T) {
	c := newCache[int](1<<20, 1, nil)
	started, gate := make(chan struct{}), make(chan struct{})
	type answer struct {
		v  int
		st Status
	}
	got := make(chan answer, 1)
	go func() {
		v, st := c.Do(1, key("old"), func() (int, bool) { close(started); <-gate; return 5, true })
		got <- answer{v, st}
	}()
	<-started
	c.Do(2, key("new"), func() (int, bool) { return 6, true })
	close(gate)
	if a := <-got; a.v != 5 || a.st != StatusMiss {
		t.Fatalf("straddling flight answered (%d, %v), want (5, miss)", a.v, a.st)
	}
	if _, ok := c.Get(key("old")); ok {
		t.Fatal("a value computed at a retired generation was stored")
	}
	if st := c.Stats(); st.Rejected != 1 || st.Entries != 1 {
		t.Fatalf("counters %+v, want 1 rejected and only the new entry", st)
	}
}

// TestNoCoalescingAcrossGenerations: a lookup at generation 2 for the
// query of a generation-1 flight still blocked in its compute computes
// its own answer. Do joins any flight under the same key, whatever its
// generation, so this holds only because AppendQueryKey writes the epoch
// into the key: without it the newer lookup would share the older answer.
func TestNoCoalescingAcrossGenerations(t *testing.T) {
	c := New[int](1<<20, nil)
	terms, weights := []int{3, 57}, []float64{1, 2}
	started, gate := make(chan struct{}), make(chan struct{})
	type answer struct {
		v  int
		st Status
	}
	got := make(chan answer, 1)
	go func() {
		v, st := c.Do(1, AppendQueryKey(nil, 1, 10, terms, weights), func() (int, bool) { close(started); <-gate; return 1, true })
		got <- answer{v, st}
	}()
	<-started
	second := make(chan answer, 1)
	go func() {
		v, st := c.Do(2, AppendQueryKey(nil, 2, 10, terms, weights), func() (int, bool) { return 2, true })
		second <- answer{v, st}
	}()
	select {
	case a := <-second:
		if a.v != 2 || a.st != StatusMiss {
			t.Fatalf("generation-2 lookup answered (%d, %v), want its own (2, miss)", a.v, a.st)
		}
	case <-time.After(5 * time.Second):
		close(gate)
		t.Fatalf("generation-2 lookup waited on the generation-1 flight and got %+v", <-second)
	}
	close(gate)
	if a := <-got; a.v != 1 || a.st != StatusMiss {
		t.Fatalf("generation-1 flight answered (%d, %v), want (1, miss)", a.v, a.st)
	}
	if st := c.Stats(); st.Coalesced != 0 || st.Misses != 2 || st.Rejected != 1 || st.Entries != 1 {
		t.Fatalf("counters %+v, want 2 misses, 1 rejected, 1 entry and nothing coalesced", st)
	}
}
