package cache

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// The freshness contract the retrieval layer builds on, distilled to the
// cache's own vocabulary: a "world" advances as publish-then-bump
// (state, then epoch — the order retrieval/shard uses), computes
// validate the epoch around the read, and keys embed the epoch. The
// invariant under any interleaving of readers and mutators: a reader
// that observed epoch >= e before looking up must never receive a value
// computed from state < e — i.e. the cache can serve *newer* data than
// the key's epoch (benign, the same race an uncached lock-free search
// has) but never older.
func TestEpochKeyedFreshnessUnderStress(t *testing.T) {
	const (
		mutations = 300
		readers   = 8
	)
	c := New[uint64](Config{MaxBytes: 1 << 20}, nil)

	var state atomic.Uint64 // the published "index contents"
	var epoch atomic.Uint64 // bumped after each publish

	lookup := func(topN int) (uint64, uint64) {
		e := epoch.Load()
		key := AppendQueryKey(nil, e, topN, []int{1}, []float64{1})
		v, _ := c.Do(key, func() (uint64, bool) {
			v := state.Load()
			return v, epoch.Load() == e
		})
		return v, e
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				eBefore := epoch.Load()
				v, _ := lookup(r%3 + 1) // a few distinct topN keys per epoch
				// state is stored before epoch is bumped, so any value
				// computed at epoch >= eBefore satisfies v >= eBefore.
				if v < eBefore {
					t.Errorf("reader %d: got state %d after observing epoch %d (stale cache hit)", r, v, eBefore)
					return
				}
			}
		}(r)
	}

	for m := uint64(1); m <= mutations; m++ {
		state.Store(m) // publish...
		epoch.Store(m) // ...then bump, exactly like shard ingest/compaction
		if m%16 == 0 {
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()

	st := c.Stats()
	if st.Hits+st.Misses+st.Coalesced == 0 {
		t.Fatal("stress loop performed no lookups")
	}
}

// TestConcurrentMixedOps hammers every public method from many
// goroutines; run under -race this is the cache's data-race gate, and
// the byte-bound assertions catch accounting corruption.
func TestConcurrentMixedOps(t *testing.T) {
	c := New[int](Config{MaxBytes: 64 << 10, Shards: 4}, func(int) int64 { return 64 })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := []byte(fmt.Sprintf("key-%d", (g*31+i)%500))
				switch i % 4 {
				case 0:
					c.Do(k, func() (int, bool) { return i, true })
				case 1:
					c.Do(k, func() (int, bool) { return i, false })
				case 2:
					c.Get(k)
				case 3:
					c.Put(k, i)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > st.CapBytes {
		t.Fatalf("bytes %d exceed cap %d after concurrent churn", st.Bytes, st.CapBytes)
	}
	if st.Entries == 0 {
		t.Fatal("cache empty after churn")
	}
	// Re-derive the byte accounting from scratch (map sum and both list
	// walks): all must match the incrementally maintained totals exactly.
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		checkShard(t, s)
		s.mu.Unlock()
	}
}
