package retrieval

import (
	"sync"

	"repro/internal/segment"
	"repro/internal/topk"
	"repro/retrieval/cache"
)

// Query result caching (WithQueryCache). The cache decorates the
// backend search: queries are keyed by their sparse form as querySparse
// produces it (so any two texts that preprocess to the same term vector
// share an entry), the requested topN, and the index epoch,
// shard.Index.Epoch. The epoch is the invalidation story:
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
// The cache stores what segment.Search returns — global document numbers
// and scores — and every lookup looks the IDs up in the append-only ID
// table afterwards (results). That slice is the caller's own and a
// steady-state hit's one allocation, and no cached answer holds a view
// into the ID table's bytes, which an Add may outgrow.

// keyBufPool recycles key-encoding scratch so the hit path allocates
// nothing beyond the returned results.
var keyBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 128); return &b }}

// matchesCost is the bytes a cached answer retains: a slice header and
// 16 bytes (document, score) per slot of its array — one per match, as
// segment.Search sizes it for topN.
func matchesCost(ms []topk.Match) int64 { return 24 + 16*int64(cap(ms)) }

// initCache attaches a query cache bounded at maxBytes (<= 0 leaves the
// index uncached). Called once from the constructors (Build, Open,
// OpenDir) before the index is shared, never concurrently with queries.
func (ix *Index) initCache(maxBytes int64) {
	ix.qc = cache.New(maxBytes, matchesCost)
}

// searchStatus searches a validated sparse query: at the configured
// budget (nprobe nil) through the query cache when one is attached — hit
// and coalesced lookups share stored matches, a miss searches and stores
// its matches if the epoch was stable around the computation — and at a
// per-request budget directly, bypassing it. Either way the matches are
// resolved to the caller's own Results.
func (ix *Index) searchStatus(q segment.Query, topN int, nprobe *int) ([]Result, cache.Status) {
	if ix.qc == nil || nprobe != nil {
		return ix.results(ix.matches(q, topN, ix.probe(nprobe))), cache.StatusBypass
	}
	e := ix.sharded.Epoch()
	bufp := keyBufPool.Get().(*[]byte)
	key := cache.AppendQueryKey((*bufp)[:0], e, topN, q.Terms, q.Weights)
	ms, st := ix.qc.Do(e, key, func() ([]topk.Match, bool) {
		ms := ix.matches(q, topN, ix.probe(nil))
		// Store only if no mutation published while we searched; the
		// matches are correct to return either way (exactly what an
		// uncached search would have produced).
		return ms, ix.sharded.Epoch() == e
	})
	*bufp = key[:0]
	keyBufPool.Put(bufp)
	return ix.results(ms), st
}

// CacheStats reports the query cache's counters; ok is false when the
// index was built without WithQueryCache.
func (ix *Index) CacheStats() (QueryCacheStats, bool) {
	if ix.qc == nil {
		return QueryCacheStats{}, false
	}
	return QueryCacheStats{Stats: ix.qc.Stats(), Epoch: ix.sharded.Epoch()}, true
}
