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

func TestDoHitMissAndCounters(t *testing.T) {
	c := New[int](Config{MaxBytes: 1 << 20}, nil)
	calls := 0
	compute := func(v int) func() (int, bool) {
		return func() (int, bool) { calls++; return v, true }
	}

	v, st := c.Do(key("a"), compute(1))
	if v != 1 || st != StatusMiss {
		t.Fatalf("first lookup: got (%d, %v), want (1, miss)", v, st)
	}
	v, st = c.Do(key("a"), compute(99))
	if v != 1 || st != StatusHit {
		t.Fatalf("second lookup: got (%d, %v), want cached (1, hit)", v, st)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	v, st = c.Do(key("b"), compute(2))
	if v != 2 || st != StatusMiss {
		t.Fatalf("distinct key: got (%d, %v), want (2, miss)", v, st)
	}
	st2 := c.Stats()
	if st2.Hits != 1 || st2.Misses != 2 || st2.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses / 2 entries", st2)
	}
}

func TestUncacheableValueIsDeliveredButNotStored(t *testing.T) {
	c := New[int](Config{MaxBytes: 1 << 20}, nil)
	v, st := c.Do(key("k"), func() (int, bool) { return 7, false })
	if v != 7 || st != StatusMiss {
		t.Fatalf("got (%d, %v), want (7, miss)", v, st)
	}
	if c.Len() != 0 {
		t.Fatalf("uncacheable value was stored (%d entries)", c.Len())
	}
	if got := c.Stats().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	// The next lookup recomputes.
	v, st = c.Do(key("k"), func() (int, bool) { return 8, true })
	if v != 8 || st != StatusMiss {
		t.Fatalf("recompute: got (%d, %v), want (8, miss)", v, st)
	}
}

func TestNilCacheBypasses(t *testing.T) {
	var c *Cache[int]
	v, st := c.Do(key("k"), func() (int, bool) { return 5, true })
	if v != 5 || st != StatusBypass {
		t.Fatalf("nil Do: got (%d, %v), want (5, bypass)", v, st)
	}
	if _, ok := c.Get(key("k")); ok {
		t.Fatal("nil Get reported a hit")
	}
	c.Put(key("k"), 1)
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Fatal("nil cache accumulated state")
	}
	if New[int](Config{MaxBytes: 0}, nil) != nil {
		t.Fatal("MaxBytes <= 0 should construct the nil (disabled) cache")
	}
}

func TestLRUEvictionBound(t *testing.T) {
	// One shard so the LRU order is observable; budget fits ~4 entries.
	// Each entry is hit once after it is stored, so it is promoted to the
	// protected list, where the budget bound (not probation's) applies.
	costPer := int64(entryOverhead + 3) // 3-byte keys, zero-cost values
	c := New[int](Config{MaxBytes: 4 * costPer, Shards: 1}, nil)
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

func TestPutReplacesAndGetProbes(t *testing.T) {
	c := New[int](Config{MaxBytes: 1 << 20}, nil)
	c.Put(key("k"), 1)
	c.Put(key("k"), 2)
	if c.Len() != 1 {
		t.Fatalf("replace grew the cache to %d entries", c.Len())
	}
	if v, ok := c.Get(key("k")); !ok || v != 2 {
		t.Fatalf("got (%d, %v), want (2, true)", v, ok)
	}
	if _, ok := c.Get(key("absent")); ok {
		t.Fatal("probe of absent key hit")
	}
}

func TestValueCostDrivesEviction(t *testing.T) {
	c := New[[]byte](Config{MaxBytes: 4096, Shards: 1}, func(v []byte) int64 { return int64(len(v)) })
	big := make([]byte, 3000)
	c.Put(key("big1"), big)
	c.Get(key("big1"))      // promoted: out of probation's reach
	c.Put(key("big2"), big) // cannot coexist with big1 under 4096
	if got := c.Stats().Evictions; got != 1 {
		t.Fatalf("budget evictions = %d, want 1", got)
	}
	if got := c.Len(); got != 1 {
		t.Fatalf("entries = %d, want 1 (value cost must count)", got)
	}
}

func TestCoalescingSharesOneCompute(t *testing.T) {
	c := New[int](Config{MaxBytes: 1 << 20}, nil)
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
		results[0], statuses[0] = c.Do(key("k"), func() (int, bool) {
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
			results[i], statuses[i] = c.Do(key("k"), func() (int, bool) {
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
	c := New[int](Config{MaxBytes: 1 << 20, Shards: 5}, nil)
	if got := len(c.shards); got != 8 {
		t.Fatalf("5 shards rounded to %d, want 8", got)
	}
	for i := 0; i < 1000; i++ {
		c.Put(key(fmt.Sprintf("key-%d", i)), i)
		c.Get(key(fmt.Sprintf("key-%d", i))) // promote past probation
	}
	if got := c.Len(); got != 1000 {
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
	c := New[int](Config{MaxBytes: 1 << 20}, nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate out of Do")
			}
		}()
		c.Do(key("k"), func() (int, bool) { panic("poisoned query") })
	}()
	// The key must be fully usable again: no dead flight to block on,
	// nothing stored, no rejected/miss accounting for the aborted call.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if v, st := c.Do(key("k"), func() (int, bool) { return 9, true }); v != 9 || st != StatusMiss {
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

// TestPutDuringInFlightComputeKeepsOneEntry pins the store-vs-insert
// collision: a Put landing while a Do for the same key is mid-compute
// must leave exactly one live, reachable entry with consistent
// accounting (a blind insert would orphan the Put's entry in the LRU
// list and later evict the live entry out of the map).
func TestPutDuringInFlightComputeKeepsOneEntry(t *testing.T) {
	c := New[int](Config{MaxBytes: 1 << 20, Shards: 1}, nil)
	started := make(chan struct{})
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do(key("k"), func() (int, bool) {
			close(started)
			<-gate
			return 1, true
		})
	}()
	<-started
	c.Put(key("k"), 2) // racing store for the same key
	close(gate)
	<-done

	if got := c.Len(); got != 1 {
		t.Fatalf("entries = %d, want 1", got)
	}
	// Do's store ran last, replacing Put's value in place.
	if v, ok := c.Get(key("k")); !ok || v != 1 {
		t.Fatalf("got (%d, %v), want (1, true)", v, ok)
	}
	// Map, lists, and byte accounting must agree exactly.
	s := &c.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	checkShard(t, s)
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
	c := New[int](Config{MaxBytes: 1 << 20}, nil)
	started, gate := make(chan struct{}), make(chan struct{})
	go func() {
		defer func() { _ = recover() }()
		c.Do(key("k"), func() (int, bool) {
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
		v, st := c.Do(key("k"), func() (int, bool) { return 9, true })
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
	return New[int](Config{MaxBytes: 64 << 10, Shards: 1}, func(int) int64 { return 1000 })
}

// oneShots looks up distinct never-repeated keys until their stored
// cost reaches n times the budget.
func oneShots(c *Cache[int], prefix string, n int64) {
	budget := c.Stats().CapBytes
	for i, stored := 0, int64(0); stored < n*budget; i++ {
		k := key(fmt.Sprintf("%s-%d", prefix, i))
		c.Do(k, func() (int, bool) { return i, true })
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
			c.Do(key(fmt.Sprintf("hot-%d", i)), func() (int, bool) { return i, true })
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
	c := New[int](Config{MaxBytes: 64 << 10, Shards: 1}, nil) // ~103 B an entry
	hot := 0
	for ; c.Stats().Bytes+entryOverhead+7 <= 64<<10; hot++ {
		for r := 0; r < 2; r++ {
			c.Do(key(fmt.Sprintf("hot-%03d", hot)), func() (int, bool) { return hot, true })
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
	c.Do(key("q"), func() (int, bool) { return 1, true })
	s := &c.shards[0]
	if e := s.entries["q"]; e == nil || e.list != &s.probation || c.Stats().ProbationBytes != e.cost {
		t.Fatal("a fresh entry is not on probation")
	}
	if _, st := c.Do(key("q"), func() (int, bool) { return 2, true }); st != StatusHit {
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
	c := New[int](Config{MaxBytes: 1 << 10, Shards: 1}, nil)
	for _, k := range []string{"a", "b", "c"} {
		c.Do(key(k), func() (int, bool) { return 1, true })
		if _, st := c.Do(key(k), func() (int, bool) { return 2, true }); st != StatusHit {
			t.Fatalf("repeat of %q: %v, want hit", k, st)
		}
	}
}

// TestPutEntersProbationAndGetPromotes: the batch path's store half
// lands in probation, its probe half promotes, and replacing a promoted
// entry keeps it protected.
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
	c.Put(key("b"), 2)
	if e := s.entries["b"]; e.list != &s.protected || e.val != 2 || c.Stats().ProbationBytes != 0 {
		t.Fatal("replacing a protected entry moved it out of the protected list")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	checkShard(t, s)
}
