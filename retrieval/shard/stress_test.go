package shard

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/par"
	"repro/internal/sparse"
	"repro/internal/topk"
)

// Concurrent search-while-ingest coverage. Run with -race (the CI race
// gate includes this package); the assertions also hold in normal
// builds.
//
// Two phases with different guarantees:
//
//   - TestStressConcurrentAddSearchCompact: writers, searchers, and a
//     compactor hammer one index. Every result must satisfy the
//     structural invariants (valid global IDs, no duplicates, strict
//     (score desc, doc asc) order, scores in [-1, 1], IDs resolvable)
//     at every point in time.
//   - TestConcurrentIngestMatchesSerialReplay: with compaction quiesced,
//     fold-in scores are independent of segment boundaries, so after the
//     concurrent ingest settles the index must return *bitwise* the
//     same results as a serial replay of the same documents in the same
//     global order.

// checkResults asserts the structural result invariants. numDocs must be
// observed AFTER the search: IDs are published before segments, so no
// result can name a document past that bound.
func checkResults(res []topk.Match, numDocs, topN int, resolve func(int) string) error {
	if topN > 0 && len(res) > topN {
		return fmt.Errorf("%d results for topN=%d", len(res), topN)
	}
	seen := make(map[int]bool, len(res))
	for i, m := range res {
		if m.Doc < 0 || m.Doc >= numDocs {
			return fmt.Errorf("result %d: doc %d out of [0,%d)", i, m.Doc, numDocs)
		}
		if seen[m.Doc] {
			return fmt.Errorf("duplicate doc %d", m.Doc)
		}
		seen[m.Doc] = true
		if m.Score < -1.0000000001 || m.Score > 1.0000000001 {
			return fmt.Errorf("doc %d score %v out of range", m.Doc, m.Score)
		}
		if i > 0 && topk.Better(res[i], res[i-1]) {
			return fmt.Errorf("results out of order at %d: %+v before %+v", i, res[i-1], res[i])
		}
		if resolve != nil && resolve(m.Doc) == "" {
			return fmt.Errorf("doc %d has no external ID", m.Doc)
		}
	}
	return nil
}

func stressSizes() (writers, addsPerWriter, searchers, searchesPerSearcher int) {
	if testing.Short() {
		return 2, 20, 2, 30
	}
	return 4, 40, 4, 80
}

func TestStressConcurrentAddSearchCompact(t *testing.T) {
	a := testMatrix(t, 3, 12, 40, 401)
	x, err := Build(a, defaultIDs(40), nil, Config{Shards: 3, Rank: 3, Seed: 13, SealEvery: 16, AutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()

	writers, adds, searchers, searches := stressSizes()
	errc := make(chan error, writers+searchers+1)
	var wg sync.WaitGroup

	// Writers: fold recycled columns in, one document per Add.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				terms, weights := sparseCol(a, (w*7+i)%40)
				if _, err := x.Add(Doc{ID: "stress", Terms: terms, Weights: weights}); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	// Searchers: check every result set mid-flight.
	for s := 0; s < searchers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < searches; i++ {
				terms, weights := sparseCol(a, (s*5+i)%40)
				topN := 1 + (i % 25)
				res := searchSparse(x, terms, weights, topN)
				if err := checkResults(res, x.NumDocs(), topN, x.ExternalID); err != nil {
					errc <- err
					return
				}
			}
		}(s)
	}
	// A foreground compactor on top of the background one: forced passes
	// race against ingest sealing and the auto loop.
	compStop := make(chan struct{})
	compDone := make(chan struct{})
	go func() {
		defer close(compDone)
		for {
			select {
			case <-compStop:
				return
			default:
			}
			if _, err := x.Compact(); err != nil {
				errc <- err
				return
			}
		}
	}()

	wg.Wait()
	close(compStop)
	<-compDone
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	wantDocs := 40 + writers*adds
	if x.NumDocs() != wantDocs {
		t.Fatalf("NumDocs %d, want %d", x.NumDocs(), wantDocs)
	}
	// Post-quiesce: full coverage, exactly once, still well-ordered.
	if _, err := x.Compact(); err != nil {
		t.Fatal(err)
	}
	terms, weights := sparseCol(a, 0)
	res := searchSparse(x, terms, weights, 0)
	if len(res) != wantDocs {
		t.Fatalf("full search returned %d docs, want %d", len(res), wantDocs)
	}
	if err := checkResults(res, wantDocs, 0, x.ExternalID); err != nil {
		t.Fatal(err)
	}

	t.Run("settle merge is invisible to search", testSettleInvisible)
	t.Run("segments number documents round robin", testRoundRobinNumbering)
}

// testRoundRobinNumbering pins the invariant a checkpoint's numbering
// rests on: global document g lives on shard g mod N, and the segments
// of shard s — stable in order, then live — hold its documents in order
// without a gap, so its l-th document is global s + N·l. Random runs of
// ingest, compaction, SaveDir + Open and SaveShardDir + Open keep it at
// every step, down to a segment per document.
func testRoundRobinNumbering(t *testing.T) {
	a := testMatrix(t, 3, 12, 40, 403)
	for _, shards := range []int{1, 2, 3} {
		for _, sealEvery := range []int{1, 2, 5, 16} {
			rng := rand.New(rand.NewSource(int64(100*shards + sealEvery)))
			x, err := Build(a, defaultIDs(40), nil, Config{Shards: shards, Rank: 3, Seed: 19, SealEvery: sealEvery})
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 60; step++ {
				where := fmt.Sprintf("%d shards, sealEvery %d, step %d", shards, sealEvery, step)
				switch op := rng.Intn(12); {
				case op < 6:
					docs := make([]Doc, 1+rng.Intn(2*sealEvery+2))
					for i := range docs {
						terms, weights := sparseCol(a, rng.Intn(40))
						docs[i] = Doc{Terms: terms, Weights: weights}
					}
					if _, err := x.AddBatch(docs); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
				case op < 9:
					if _, err := x.Compact(); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
				case op < 11:
					dir := filepath.Join(t.TempDir(), "idx")
					if err := x.SaveDir(dir); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					x = reopen(t, x, dir, sealEvery, where)
				default:
					s := rng.Intn(x.cfg.Shards)
					dir := filepath.Join(t.TempDir(), "node")
					if err := x.SaveShardDir(s, dir); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					n, ids := x.cfg.Shards, x.ids.Load()
					x = reopen(t, x, dir, sealEvery, where)
					for l := 0; l < x.NumDocs(); l++ {
						if got, want := x.ExternalID(l), ids.At(s+n*l); got != want {
							t.Fatalf("%s: export of shard %d: local %d is %q, want %q", where, s, l, got, want)
						}
					}
				}
				if err := checkRoundRobin(x); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
			}
			x.Close()
		}
	}
}

// reopen opens dir, the checkpoint x just wrote, and closes x in its
// favour (a 1-shard export replaces it with the node's index).
func reopen(t *testing.T, x *Index, dir string, sealEvery int, where string) *Index {
	t.Helper()
	y, err := Open(dir, Config{SealEvery: sealEvery})
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if err := checkRoundRobin(y); err != nil {
		t.Fatalf("%s: reopened: %v", where, err)
	}
	x.Close()
	return y
}

// checkRoundRobin asserts the round-robin numbering of every shard of x
// and that the shards together hold exactly NumDocs documents.
func checkRoundRobin(x *Index) error {
	n, total := len(x.shards), 0
	for s, sh := range x.shards {
		l := 0
		for i, seg := range sh.state.Load().segments(nil) {
			for j := range seg.Len() {
				if g := seg.Global(j); g != s+n*l {
					return fmt.Errorf("shard %d segment %d row %d: global %d, want %d", s, i, j, g, s+n*l)
				}
				l++
			}
		}
		total += l
	}
	if total != x.NumDocs() {
		return fmt.Errorf("shards hold %d documents, index has %d", total, x.NumDocs())
	}
	return nil
}

// testSettleInvisible holds a compaction pass that settles in-model
// fold-ins to its contract: the merge concatenates rows under the basis
// they were folded into, so every query answers bitwise the same IDs,
// scores and order before and after it — over seeds, shard counts and
// worker counts, and across passes that absorb older settled tiers.
func testSettleInvisible(t *testing.T) {
	for _, seed := range []int64{501, 502} {
		a := testMatrix(t, 3, 12, 120, seed)
		for _, shards := range []int{1, 2, 3} {
			for _, procs := range []int{1, 2} {
				settleInvisible(t, a, seed, shards, procs)
			}
		}
	}
}

func settleInvisible(t *testing.T, a *sparse.CSR, seed int64, shards, procs int) {
	defer par.SetMaxProcs(par.SetMaxProcs(procs))
	x, err := Build(a, defaultIDs(120), nil, Config{Shards: shards, Rank: 3, Seed: seed, SealEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	answers := func() [][]topk.Match {
		var out [][]topk.Match
		for j := 0; j < 120; j += 9 {
			terms, weights := sparseCol(a, j)
			out = append(out, searchSparse(x, terms, weights, 0), searchSparse(x, terms, weights, 10))
		}
		return out
	}
	// Three passes of 48 documents: the second absorbs the first's tier.
	for pass, added := 0, 0; pass < 3; pass++ {
		for ; added < 48*(pass+1); added++ {
			terms, weights := sparseCol(a, (added*7+int(seed))%120)
			if _, err := x.Add(Doc{Terms: terms, Weights: weights}); err != nil {
				t.Fatal(err)
			}
		}
		where := fmt.Sprintf("seed %d, %d shards, MaxProcs %d, pass %d", seed, shards, procs, pass)
		before := answers()
		if n, err := x.Compact(); err != nil || n == 0 {
			t.Fatalf("%s: Compact = %d, %v", where, n, err)
		}
		for i, got := range answers() {
			sameMatches(t, got, before[i], where)
		}
	}
}

func TestConcurrentIngestMatchesSerialReplay(t *testing.T) {
	a := testMatrix(t, 3, 12, 36, 402)
	cfg := Config{Shards: 3, Rank: 3, Seed: 17, SealEvery: 16} // AutoCompact off
	x, err := Build(a, defaultIDs(36), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()

	writers, adds, searchers, searches := stressSizes()
	total := writers * adds
	// arrival[g-36] records which column landed as global g; each slot is
	// written exactly once by the Add that won that global number.
	arrival := make([]int, total)
	errc := make(chan error, writers+searchers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				col := (w*11 + i*3) % 36
				terms, weights := sparseCol(a, col)
				g, err := x.Add(Doc{Terms: terms, Weights: weights})
				if err != nil {
					errc <- err
					return
				}
				arrival[g-36] = col
			}
		}(w)
	}
	for s := 0; s < searchers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < searches; i++ {
				terms, weights := sparseCol(a, (s+i)%36)
				res := searchSparse(x, terms, weights, 10)
				if err := checkResults(res, x.NumDocs(), 10, nil); err != nil {
					errc <- err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// Serial replay: same initial build, same documents in the same
	// global order. Fold-in scores do not depend on segment boundaries
	// (every fold targets the shard's base subspace), so the concurrent
	// index and the serial replay must agree bitwise.
	y, err := Build(a, defaultIDs(36), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer y.Close()
	for _, col := range arrival {
		terms, weights := sparseCol(a, col)
		if _, err := y.Add(Doc{Terms: terms, Weights: weights}); err != nil {
			t.Fatal(err)
		}
	}
	if y.NumDocs() != x.NumDocs() {
		t.Fatalf("replay NumDocs %d, want %d", y.NumDocs(), x.NumDocs())
	}
	for j := 0; j < 12; j++ {
		terms, weights := sparseCol(a, j*3%36)
		for _, topN := range []int{0, 5, 33} {
			sameMatches(t, searchSparse(x, terms, weights, topN), searchSparse(y, terms, weights, topN), "serial replay")
		}
	}
}
