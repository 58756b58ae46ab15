package retrieval

import (
	"sync"

	"repro/internal/segment"
	"repro/retrieval/cache"
)

// Query result caching (WithQueryCache). The cache decorates the
// backend search: queries are keyed by their *normalized sparse form*
// (so any two texts that preprocess to the same term vector share an
// entry), the requested topN, and the index epoch, shard.Index.Epoch.
// The epoch is the invalidation story:
//
//   - An unsharded index is a frozen one-shard index whose epoch stays
//     0, so its cached results stay valid forever.
//   - A sharded live index's epoch advances after every published Add
//     batch and every compaction swap. The bump retires the whole cached
//     working set in O(1) — new lookups encode the new epoch into their
//     keys and miss, and pass it as the cache's generation, which frees
//     the old entries at the first of them (no scan, no reader locks).
//
// Freshness proof sketch (the stress tests pin this): a mutation
// publishes its state pointers *before* bumping the epoch, and a cached
// compute re-reads the epoch after searching, storing only if it was
// stable. So an entry keyed with epoch E was computed entirely inside
// epoch E, i.e. after every mutation numbered <= E was fully visible;
// a lookup at epoch E can therefore never observe pre-Add or
// pre-Compact results. (An entry may contain *newer* data than its
// epoch if a mutation raced the compute's snapshot without finishing
// before validation — the same benign race an uncached wait-free search
// has.)
//
// Cached values are shared between the cache and every hit, so the
// decorator copies the result slice before returning it; a steady-state
// hit costs exactly that one allocation.

// keyBufPool recycles key-encoding scratch so the hit path allocates
// nothing beyond the returned copy.
var keyBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 128); return &b }}

// resultsCost estimates the bytes a cached result slice retains: slice
// header plus, per result, the struct and the external-ID string bytes.
func resultsCost(rs []Result) int64 {
	cost := int64(24)
	for i := range rs {
		cost += 32 + int64(len(rs[i].ID))
	}
	return cost
}

// copyResults returns a caller-owned copy of a shared result slice.
func copyResults(rs []Result) []Result {
	out := make([]Result, len(rs))
	copy(out, rs)
	return out
}

// initCache attaches a query cache bounded at maxBytes (<= 0 leaves the
// index uncached). Called once from the constructors (Build, Open,
// OpenDir) before the index is shared, never concurrently with queries.
func (ix *Index) initCache(maxBytes int64) {
	ix.qc = cache.New[[]Result](cache.Config{MaxBytes: maxBytes}, resultsCost)
}

// searchStatus is the configured-budget search of a validated sparse
// query through the cache when one is attached, the one cache protocol
// of every text query (searchText, Search): hit and coalesced lookups
// share a previously computed slice (copied before returning), misses run
// the search and store the result if the epoch was stable around the
// computation.
func (ix *Index) searchStatus(q segment.Query, topN int) ([]Result, cache.Status) {
	if ix.qc == nil {
		return ix.search(q, topN, ix.probe(nil)), cache.StatusBypass
	}
	e := ix.sharded.Epoch()
	bufp := keyBufPool.Get().(*[]byte)
	key := cache.AppendQueryKey((*bufp)[:0], e, topN, q.Terms, q.Weights)
	res, st := ix.qc.Do(e, key, func() ([]Result, bool) {
		r := ix.search(q, topN, ix.probe(nil))
		// Store only if no mutation published while we searched; the
		// value is correct to return either way (it is exactly what an
		// uncached search would have produced).
		return r, ix.sharded.Epoch() == e
	})
	*bufp = key[:0]
	keyBufPool.Put(bufp)
	// The slice is shared with the cache (hit, coalesced) or with
	// waiters that coalesced on our flight (miss) — hand out a copy.
	return copyResults(res), st
}

// CacheStats reports the query cache's counters; ok is false when the
// index was built without WithQueryCache.
func (ix *Index) CacheStats() (QueryCacheStats, bool) {
	if ix.qc == nil {
		return QueryCacheStats{}, false
	}
	return QueryCacheStats{Stats: ix.qc.Stats(), Epoch: ix.sharded.Epoch()}, true
}
