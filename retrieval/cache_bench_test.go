package retrieval

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/segment"
	"repro/retrieval/cache"
)

// Cache benchmarks. BenchmarkCachedQueryMiss is the baseline (the full
// sparse hot path plus key encoding and a store); BenchmarkCachedQueryHit
// is the serving-path headline — the acceptance bar is >= 10x lower
// ns/op than the uncached sparse path (BenchmarkQueryLatencySparse at
// the repo root) with no extra allocations (1 alloc/op: the returned
// copy). BenchmarkCachedQueryZipfian replays a Zipf-distributed query
// trace — the paper's model of topic-concentrated traffic — and reports
// the measured hit rate (EXPERIMENTS.md's appendix holds the PR 5 record).

// benchCachedIndex builds a 500-doc index with a query cache, mirroring
// the scale of benchQueryIndex in the root bench suite.
func benchCachedIndex(b *testing.B, cacheBytes int64) *Index {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	vocab := make([]string, 600)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%c%c%c", 'a'+i%26, 'a'+(i/26)%26, 'a'+(i/676)%26)
	}
	texts := make([]string, 500)
	for i := range texts {
		s := ""
		for j := 0; j < 40; j++ {
			s += vocab[rng.Intn(len(vocab))] + " "
		}
		texts[i] = s
	}
	opts := []Option{WithRank(10), WithParallelism(1), WithStemming(false), WithStopwordRemoval(false)}
	if cacheBytes > 0 {
		opts = append(opts, WithQueryCache(cacheBytes))
	}
	ix, err := BuildTexts(texts, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

// benchQueryTerms returns a canonical 4-term query against the bench
// index's vocabulary.
func benchQueryTerms(ix *Index) ([]int, []float64) {
	n := ix.NumTerms()
	terms := []int{3 % n, 57 % n, 211 % n, 402 % n}
	return terms, []float64{1, 2, 1, 1}
}

// BenchmarkCachedQueryHit measures the steady-state cache hit: key
// encode (pooled), sharded lookup of a protected entry, one result-slice
// copy.
func BenchmarkCachedQueryHit(b *testing.B) {
	ix := benchCachedIndex(b, 1<<20)
	terms, weights := benchQueryTerms(ix)
	if _, st := ix.searchStatus(segment.Query{Terms: terms, Weights: weights}, 10); st != cache.StatusMiss {
		b.Fatalf("priming status %v", st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, st := ix.searchStatus(segment.Query{Terms: terms, Weights: weights}, 10); st != cache.StatusHit {
			b.Fatalf("status %v, want hit", st)
		}
	}
}

// BenchmarkCachedQueryMiss measures the miss path: every iteration uses
// a never-seen weight so the full backend search runs plus the cache's
// key encode, flight bookkeeping, and store/evict.
func BenchmarkCachedQueryMiss(b *testing.B) {
	ix := benchCachedIndex(b, 1<<20)
	terms, weights := benchQueryTerms(ix)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		weights[0] = 1 + float64(i)
		if _, st := ix.searchStatus(segment.Query{Terms: terms, Weights: weights}, 10); st != cache.StatusMiss {
			b.Fatalf("status %v, want miss", st)
		}
	}
}

// BenchmarkCachedQueryCoalesced drives many goroutines through a
// round-keyed query so concurrent identical lookups pile onto one
// flight; it reports how many lookups were absorbed (coalesced or hit)
// per computed miss.
func BenchmarkCachedQueryCoalesced(b *testing.B) {
	ix := benchCachedIndex(b, 1<<20)
	terms, weights := benchQueryTerms(ix)
	var round atomic.Int64
	before, _ := ix.CacheStats()
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := append([]float64(nil), weights...)
		for pb.Next() {
			// All goroutines currently on round r share one key and
			// coalesce; Add advances the round every 16 lookups.
			r := round.Add(1) / 16
			w[0] = 1 + float64(r)
			ix.searchStatus(segment.Query{Terms: terms, Weights: w}, 10)
		}
	})
	b.StopTimer()
	after, _ := ix.CacheStats()
	misses := after.Misses - before.Misses
	if misses > 0 {
		absorbed := (after.Hits - before.Hits) + (after.Coalesced - before.Coalesced)
		b.ReportMetric(float64(absorbed)/float64(misses), "absorbed/miss")
	}
}

// BenchmarkCachedQueryZipfian replays a Zipf-distributed trace over 1k
// distinct queries — the topic-concentrated traffic the paper's
// probabilistic model predicts — against a cache deliberately smaller
// than the full query set, so the cache must keep the Zipf head in its
// protected list while the tail cycles through probation. The hit-rate
// metric is the amortization headline: ns/op approaches the hit cost as
// the skew concentrates.
func BenchmarkCachedQueryZipfian(b *testing.B) {
	ix := benchCachedIndex(b, 128<<10)
	n := ix.NumTerms()
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.2, 1, 1023)
	const traceLen = 1 << 14
	type q struct {
		terms   []int
		weights []float64
	}
	// 1024 distinct queries; trace indices are Zipf-skewed onto them.
	qs := make([]q, 1024)
	for i := range qs {
		t1 := i % n
		t2 := (i*7 + 13) % n
		if t2 <= t1 {
			t2 = t1 + 1
		}
		qs[i] = q{terms: []int{t1, t2 % n, (t2 + 17) % n}, weights: []float64{1, 2, 1}}
		nt, nw := cache.NormalizeQuery(qs[i].terms, qs[i].weights)
		qs[i].terms, qs[i].weights = nt, nw
	}
	trace := make([]int, traceLen)
	for i := range trace {
		trace[i] = int(zipf.Uint64())
	}
	before, _ := ix.CacheStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query := qs[trace[i%traceLen]]
		ix.searchStatus(segment.Query{Terms: query.terms, Weights: query.weights}, 10)
	}
	b.StopTimer()
	after, _ := ix.CacheStats()
	total := (after.Hits - before.Hits) + (after.Misses - before.Misses) + (after.Coalesced - before.Coalesced)
	if total > 0 {
		b.ReportMetric(float64(after.Hits-before.Hits)/float64(total), "hit-rate")
	}
}

// BenchmarkCachedQueryUncachedBaseline is the same index and query with
// no cache attached — the in-package twin of the root suite's
// BenchmarkQueryLatencySparse, so the hit/miss/baseline triple reads
// off one bench run.
func BenchmarkCachedQueryUncachedBaseline(b *testing.B) {
	ix := benchCachedIndex(b, 0)
	terms, weights := benchQueryTerms(ix)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.searchStatus(segment.Query{Terms: terms, Weights: weights}, 10)
	}
}
