package retrieval

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"unsafe"
	"weak"

	"repro/internal/par"
	"repro/internal/race"
	"repro/internal/segment"
	"repro/retrieval/cache"
)

// marker returns a letter-only unique token (the tokenizer keeps
// letters only, so "doc7" would collapse into "doc"); the trailing q
// keeps the Porter stemmer's plural/suffix rules away from it.
func marker(i int) string {
	s := "zz"
	for _, d := range fmt.Sprintf("%d", i) {
		s += string(rune('a' + d - '0'))
	}
	return s + "q"
}

// cachedTestCorpus is DemoCorpus plus a dictionary document holding n
// marker tokens, so the markers are in the build vocabulary and later
// Adds can use them.
func cachedTestCorpus(n int) []Document {
	docs := DemoCorpus()
	dict := ""
	for i := 0; i < n; i++ {
		dict += marker(i) + " "
	}
	return append(docs, Document{ID: "dictionary", Text: dict})
}

func TestCachedSearchMatchesUncachedAndReportsStatus(t *testing.T) {
	ctx := context.Background()
	plain, err := Build(DemoCorpus(), WithRank(3), WithEngine(EngineDense))
	if err != nil {
		t.Fatal(err)
	}
	cached, err := Build(DemoCorpus(), WithRank(3), WithEngine(EngineDense), WithQueryCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"car engine repair", "galaxy stars telescope", "pasta garlic"}
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			want, err := plain.Search(ctx, q, 5)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := status(cached.Query(ctx, Query{Texts: []string{q}, TopN: 5}))
			if err != nil {
				t.Fatal(err)
			}
			wantStatus := cache.StatusHit
			if round == 0 {
				wantStatus = cache.StatusMiss
			}
			if st != wantStatus {
				t.Fatalf("round %d %q: status %v, want %v", round, q, st, wantStatus)
			}
			if len(got) != len(want) {
				t.Fatalf("round %d %q: %d results, want %d", round, q, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("round %d %q result %d: cached %+v != uncached %+v", round, q, i, got[i], want[i])
				}
			}
		}
	}
	// Uncached index reports bypass and no cache stats.
	if _, st, _ := status(plain.Query(ctx, Query{Texts: []string{"car"}, TopN: 5})); st != cache.StatusBypass {
		t.Fatalf("uncached index status %v, want bypass", st)
	}
	if _, ok := plain.CacheStats(); ok {
		t.Fatal("uncached index reported cache stats")
	}
	cs, ok := cached.CacheStats()
	if !ok {
		t.Fatal("cached index reported no cache stats")
	}
	if cs.Hits != int64(len(queries)*2) || cs.Misses != int64(len(queries)) {
		t.Fatalf("counters = %d hits / %d misses, want %d / %d", cs.Hits, cs.Misses, len(queries)*2, len(queries))
	}
	if cached.Stats().Cache == nil || plain.Stats().Cache != nil {
		t.Fatal("Stats.Cache presence does not track WithQueryCache")
	}
}

// TestCachedResultsAreCallerOwned pins that every lookup's results are
// the caller's own: a caller mutating its result slice must not corrupt
// later hits.
func TestCachedResultsAreCallerOwned(t *testing.T) {
	ctx := context.Background()
	ix, err := Build(DemoCorpus(), WithRank(3), WithEngine(EngineDense), WithQueryCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := status(ix.Query(ctx, Query{Texts: []string{"car engine"}, TopN: 5}))
	if err != nil {
		t.Fatal(err)
	}
	want := append([]Result(nil), first...)
	first[0] = Result{Doc: -1, ID: "corrupted", Score: -99}
	again, st, err := status(ix.Query(ctx, Query{Texts: []string{"car engine"}, TopN: 5}))
	if err != nil {
		t.Fatal(err)
	}
	if st != cache.StatusHit {
		t.Fatalf("status %v, want hit", st)
	}
	for i := range want {
		if again[i] != want[i] {
			t.Fatalf("hit %d = %+v, want %+v (cache shared a caller-mutable slice)", i, again[i], want[i])
		}
	}
}

func TestCacheInvalidationOnAddAndCompact(t *testing.T) {
	ctx := context.Background()
	ix, err := Build(cachedTestCorpus(8),
		WithShards(2), WithRank(3), WithSealEvery(2), WithAutoCompact(false),
		WithQueryCache(1<<20), WithStemming(false))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	// Prime the cache on a marker with no matching document beyond the
	// dictionary, then Add a doc made of that marker: the very next
	// search must see it (an epoch-ignorant cache would serve the stale
	// pre-Add hit).
	q := marker(3)
	before, st, err := status(ix.Query(ctx, Query{Texts: []string{q}, TopN: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if st != cache.StatusMiss {
		t.Fatalf("priming search status %v, want miss", st)
	}
	if _, _, err := status(ix.Query(ctx, Query{Texts: []string{q}, TopN: 0})); err != nil {
		t.Fatal(err)
	}
	first, err := ix.Add(ctx, []Document{{ID: "fresh", Text: q + " " + q + " " + q}})
	if err != nil {
		t.Fatal(err)
	}
	after, st, err := status(ix.Query(ctx, Query{Texts: []string{q}, TopN: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if st == cache.StatusHit {
		t.Fatal("post-Add search hit the pre-Add cache entry")
	}
	found := false
	for _, r := range after {
		if r.Doc == first {
			found = true
		}
	}
	if !found {
		t.Fatalf("post-Add search does not include the added doc %d: before=%v after=%v", first, before, after)
	}

	// Fill a couple of segments and compact; the post-compact search
	// must not be served from a pre-compact entry (scores move when the
	// segment is re-decomposed).
	for i := 0; i < 6; i++ {
		if _, err := ix.Add(ctx, []Document{{Text: marker(4) + " " + marker(5)}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := status(ix.Query(ctx, Query{Texts: []string{q}, TopN: 0})); err != nil { // prime at current epoch
		t.Fatal(err)
	}
	epochBefore, _ := ix.CacheStats()
	if n, err := ix.Compact(); err != nil || n == 0 {
		t.Fatalf("compact: n=%d err=%v (want work done)", n, err)
	}
	epochAfter, _ := ix.CacheStats()
	if epochAfter.Epoch <= epochBefore.Epoch {
		t.Fatalf("compaction did not advance the cache epoch (%d -> %d)", epochBefore.Epoch, epochAfter.Epoch)
	}
	if _, st, err := status(ix.Query(ctx, Query{Texts: []string{q}, TopN: 0})); err != nil || st == cache.StatusHit {
		t.Fatalf("post-compact search: status %v err %v, want a recompute", st, err)
	}
}

func TestSearchBatchUsesCache(t *testing.T) {
	ctx := context.Background()
	ix, err := Build(DemoCorpus(), WithRank(3), WithEngine(EngineDense), WithQueryCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Build(DemoCorpus(), WithRank(3), WithEngine(EngineDense))
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"car engine", "galaxy stars", "zzzunknownzzz", "car engine"}
	want, err := plain.SearchBatch(ctx, queries, 5)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		got, err := ix.SearchBatch(ctx, queries, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("round %d query %d: %d results, want %d", round, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("round %d query %d result %d: %+v != %+v", round, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
	cs, _ := ix.CacheStats()
	// Round 1 computes "car engine" and "galaxy stars" once each (2
	// misses; the duplicate "car engine" hits or coalesces on its twin),
	// round 2 hits all three in-vocabulary lookups.
	if cs.Misses != 2 || cs.Hits+cs.Coalesced != 4 {
		t.Fatalf("stats = %+v, want 2 misses and 4 hits or coalesced lookups", cs.Stats)
	}
	// And a single Search on the same query is served from the batch's
	// stored entry — the two paths share the cache.
	if _, st, err := status(ix.Query(ctx, Query{Texts: []string{"galaxy stars"}, TopN: 5})); err != nil || st != cache.StatusHit {
		t.Fatalf("single search after batch: status %v err %v, want hit", st, err)
	}

	// A 3-text Query with one duplicated text adds 2 to the misses, and a
	// later single-text Query of either text hits. With a probe budget the
	// same batch answers alike, stores nothing and reports bypass; an
	// unknown-vocabulary text inside it gets an empty list.
	fresh, err := Build(DemoCorpus(), WithRank(3), WithEngine(EngineDense), WithQueryCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	batch := []string{"pasta garlic", "telescope galaxy", "pasta garlic"}
	budget := 0
	ans, err := fresh.Query(ctx, Query{Texts: append(batch, "zzzunknownzzz"), TopN: 5, NProbe: &budget})
	if cs, _ := fresh.CacheStats(); err != nil || ans.Cache != cache.StatusBypass || cs.Misses != 0 || cs.Entries != 0 {
		t.Fatalf("budgeted batch: err %v, status %v, cache %+v; want bypass and nothing stored", err, ans.Cache, cs.Stats)
	}
	if last := ans.Results[3]; last == nil || len(last) != 0 {
		t.Fatalf("unknown-vocabulary text in a batch: %#v, want an empty list", last)
	}
	cached, err := fresh.Query(ctx, Query{Texts: batch, TopN: 5})
	if cs, _ := fresh.CacheStats(); err != nil || cached.Cache != cache.StatusBypass || cs.Misses != 2 {
		t.Fatalf("batch: err %v, status %v, cache %+v; want bypass and 2 misses", err, cached.Cache, cs.Stats)
	}
	for i, text := range batch[:2] {
		res, st, err := status(fresh.Query(ctx, Query{Texts: []string{text}, TopN: 5}))
		if err != nil || st != cache.StatusHit || len(res) != len(cached.Results[i]) || len(res) != len(ans.Results[i]) {
			t.Fatalf("%q after the batch: status %v err %v, %d results; want a hit", text, st, err, len(res))
		}
		for j := range res {
			if res[j] != cached.Results[i][j] || res[j] != ans.Results[i][j] {
				t.Fatalf("%q result %d: single %+v, batch %+v, budgeted %+v", text, j, res[j], cached.Results[i][j], ans.Results[i][j])
			}
		}
	}
}

func TestCacheHitAllocsAtMostOne(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	old := par.SetMaxProcs(1)
	t.Cleanup(func() { par.SetMaxProcs(old) })
	ix, err := Build(DemoCorpus(), WithRank(3), WithEngine(EngineDense), WithQueryCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	terms, weights, known := ix.querySparse("car engine repair")
	if known == 0 {
		t.Fatal("query missed the vocabulary")
	}
	// Prime, then pin: a steady-state hit allocates exactly the returned
	// results — nothing for the key, the lookup, or the LRU touch.
	ix.searchStatus(segment.Query{Terms: terms, Weights: weights}, 5, nil)
	allocs := testing.AllocsPerRun(200, func() {
		res, st := ix.searchStatus(segment.Query{Terms: terms, Weights: weights}, 5, nil)
		if st != cache.StatusHit {
			t.Fatalf("status %v, want hit", st)
		}
		if len(res) == 0 {
			t.Fatal("empty hit")
		}
	})
	if allocs > 1 {
		t.Fatalf("cache hit allocates %v/op, want <= 1 (the results)", allocs)
	}
}

// TestCachedAnswersDoNotPinSupersededIDs: a cached answer holds document
// numbers, not views of the ID table's bytes, so once an Add outgrows the
// table's exact-size array, nothing keeps the old array alive — not even
// answers the cache has yet to retire, since no lookup ran after the Add.
func TestCachedAnswersDoNotPinSupersededIDs(t *testing.T) {
	ctx := context.Background()
	ix, err := Build(DemoCorpus(), WithShards(2), WithRank(3), WithQueryCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, err := ix.Search(ctx, "car engine", 0); err != nil {
		t.Fatal(err)
	}
	if cs, _ := ix.CacheStats(); cs.Entries != 1 {
		t.Fatalf("cache holds %d entries, want the one answer", cs.Entries)
	}
	table := weak.Make(unsafe.StringData(ix.DocID(0)))
	if _, err := ix.Add(ctx, []Document{{ID: "added", Text: "car"}}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if table.Value() != nil {
		t.Fatal("the ID table's superseded array is still reachable after an Add outgrew it")
	}
}

// TestCachedSearchFreshnessUnderStress is the end-to-end epoch-
// invalidation gate, run under -race by the race CI job: readers,
// writers, and the compactor race while every completed Add is
// immediately verified to be visible through the cached search path. A
// cache serving any pre-Add epoch fails the visibility assertion; the
// race detector additionally gates the lock-free publish protocol.
func TestCachedSearchFreshnessUnderStress(t *testing.T) {
	ctx := context.Background()
	const adds = 60
	ix, err := Build(cachedTestCorpus(adds+16),
		WithShards(2), WithRank(3), WithSealEvery(8), WithAutoCompact(false),
		WithQueryCache(1<<20), WithStemming(false))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	var wg sync.WaitGroup
	var ready sync.WaitGroup
	stop := make(chan struct{})
	// Background readers keep popular queries hot so the writer's
	// assertions race against real cache traffic. Each reader signals
	// after its first query so the single-CPU scheduler cannot finish
	// the writer before any reader ran (all readers open on the same
	// key, so the barrier also guarantees hit/coalesce traffic).
	for r := 0; r < 3; r++ {
		wg.Add(1)
		ready.Add(1)
		go func(r int) {
			defer wg.Done()
			first := true
			for i := 0; ; i++ {
				select {
				case <-stop:
					if first {
						ready.Done()
					}
					return
				default:
				}
				q := marker(i % 8)
				if _, _, err := status(ix.Query(ctx, Query{Texts: []string{q}, TopN: 5})); err != nil {
					t.Errorf("reader %d: %v", r, err)
					if first {
						ready.Done()
					}
					return
				}
				if first {
					ready.Done()
					first = false
				}
			}
		}(r)
	}
	// Background compactor churn: epoch bumps from both mutation kinds.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ix.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()

	ready.Wait()
	// The writer is also the verifier: every Add must be visible to the
	// cached search path the moment it returns.
	for i := 0; i < adds; i++ {
		q := marker(16 + i)
		// Warm the cache on the pre-Add state of this exact query so a
		// stale hit is possible if invalidation were broken.
		if _, _, err := status(ix.Query(ctx, Query{Texts: []string{q}, TopN: 0})); err != nil {
			t.Fatal(err)
		}
		doc, err := ix.Add(ctx, []Document{{Text: q + " " + q}})
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := status(ix.Query(ctx, Query{Texts: []string{q}, TopN: 0}))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range res {
			if r.Doc == doc {
				found = true
			}
		}
		if !found {
			t.Fatalf("add %d: doc %d invisible to cached search immediately after Add returned (stale epoch served)", i, doc)
		}
	}
	close(stop)
	wg.Wait()

	cs, ok := ix.CacheStats()
	if !ok || cs.Hits+cs.Coalesced == 0 || cs.Misses == 0 {
		t.Fatalf("stress ran without cache traffic: %+v", cs)
	}
}

// TestCacheRetiresAtEachEpoch interleaves Add batches and compactions
// with repeated searches on a live sharded index: the cache never holds
// more entries than the lookups since the epoch last moved (the first
// lookup at a new epoch retires the old answers), and every answer is
// bitwise an uncached twin index's.
func TestCacheRetiresAtEachEpoch(t *testing.T) {
	ctx := context.Background()
	opts := []Option{WithShards(2), WithRank(3), WithSealEvery(2), WithAutoCompact(false), WithStemming(false)}
	ix, err := Build(cachedTestCorpus(16), append(opts, WithQueryCache(1<<20))...)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	plain, err := Build(cachedTestCorpus(16), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	queries := []string{"car engine", marker(1) + " " + marker(2), "galaxy stars", marker(3)}
	var epoch uint64
	lookups := 0
	for round := 0; round < 12; round++ {
		batch := []Document{{Text: marker(round) + " car"}, {Text: marker(round+1) + " " + marker(3)}}
		for _, x := range []*Index{ix, plain} {
			if _, err := x.Add(ctx, batch); err != nil {
				t.Fatal(err)
			}
			if round%4 == 3 {
				if _, err := x.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for rep := 0; rep < 3; rep++ {
			for _, q := range queries {
				got, err := only(ix.Query(ctx, Query{Texts: []string{q}, TopN: 0}))
				if err != nil {
					t.Fatal(err)
				}
				want, err := only(plain.Query(ctx, Query{Texts: []string{q}, TopN: 0}))
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("round %d %q: %d results, uncached %d", round, q, len(got), len(want))
				}
				for i := range want {
					if got[i].Doc != want[i].Doc || got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
						t.Fatalf("round %d %q result %d: cached %+v, uncached %+v", round, q, i, got[i], want[i])
					}
				}
				cs, _ := ix.CacheStats()
				if cs.Epoch != epoch {
					epoch, lookups = cs.Epoch, 0
				}
				lookups++
				if cs.Entries > lookups {
					t.Fatalf("round %d: %d entries after %d lookups at epoch %d", round, cs.Entries, lookups, epoch)
				}
			}
		}
	}
	if cs, _ := ix.CacheStats(); cs.Retired == 0 || cs.Hits == 0 {
		t.Fatalf("cache %+v: want retired entries and hits", cs.Stats)
	}
}
