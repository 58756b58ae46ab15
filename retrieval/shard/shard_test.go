package shard

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/idtable"
	"repro/internal/lsi"
	"repro/internal/par"
	"repro/internal/segment"
	"repro/internal/sparse"
	"repro/internal/topk"
)

// testMatrix builds a labeled term-document matrix with m documents.
func testMatrix(t testing.TB, topics, termsPer, m int, seed int64) *sparse.CSR {
	t.Helper()
	model, err := corpus.PureSeparableModel(corpus.SeparableConfig{
		NumTopics: topics, TermsPerTopic: termsPer, Epsilon: 0.05, MinLen: 40, MaxLen: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Generate(model, m, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return corpus.TermDocMatrix(c, corpus.CountWeighting)
}

func defaultIDs(m int) []string {
	ids := make([]string, m)
	for i := range ids {
		ids[i] = "doc"
	}
	return ids
}

// sparseCol extracts column j of a in sorted sparse form.
func sparseCol(a *sparse.CSR, j int) (terms []int, weights []float64) {
	n, _ := a.Dims()
	for t := 0; t < n; t++ {
		if v := a.At(t, j); v != 0 {
			terms = append(terms, t)
			weights = append(weights, v)
		}
	}
	return terms, weights
}

// searchSparse is the exhaustive search of x: segment.Search over its
// current snapshot with both tiers off.
func searchSparse(x *Index, terms []int, weights []float64, topN int) []topk.Match {
	ms, _ := x.SearchSparseOpts(terms, weights, topN, segment.ProbeOptions{})
	return ms
}

func sameMatches(t *testing.T, got, want []topk.Match, context string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", context, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d = %+v, want %+v (bitwise)", context, i, got[i], want[i])
		}
	}
}

func TestOneShardMatchesUnshardedBitwise(t *testing.T) {
	a := testMatrix(t, 3, 12, 48, 301)
	plain, err := lsi.Build(a, 4, lsi.Options{Engine: lsi.EngineRandomized, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	x, err := Build(a, defaultIDs(48), Config{Shards: 1, Rank: 4, Engine: lsi.EngineRandomized, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	frozen, err := Frozen(plain, idtable.Of(defaultIDs(48)), segment.TierConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, topN := range []int{0, 1, 7, 48, 100} {
		for j := 0; j < 8; j++ {
			terms, weights := sparseCol(a, j)
			sameMatches(t, searchSparse(x, terms, weights, topN), plain.SearchSparse(terms, weights, topN), "sparse")
			sameMatches(t, searchSparse(frozen, terms, weights, topN), plain.SearchSparse(terms, weights, topN), "frozen sparse")
			dense, _ := segment.Search(x.Segments(nil), segment.Query{Vec: a.Col(j)}, topN, segment.ProbeOptions{})
			sameMatches(t, dense, plain.Search(a.Col(j), topN), "dense")
		}
	}
}

// A Frozen index takes no documents, runs no compactor, never moves its
// epoch, and refuses an ID table of the wrong length.
func TestFrozenTakesNoDocuments(t *testing.T) {
	a := testMatrix(t, 3, 12, 48, 301)
	plain, err := lsi.Build(a, 4, lsi.Options{Engine: lsi.EngineRandomized, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Frozen(plain, idtable.Of(defaultIDs(47)), segment.TierConfig{}); err == nil {
		t.Fatal("Frozen accepted 47 ids for 48 documents")
	}
	x, err := Frozen(plain, idtable.Of(defaultIDs(48)), segment.TierConfig{})
	if err != nil {
		t.Fatal(err)
	}
	terms, weights := sparseCol(a, 0)
	if _, err := x.Add(Doc{ID: "new", Terms: terms, Weights: weights}); !errors.Is(err, ErrFrozen) {
		t.Fatalf("Add = %v, want ErrFrozen", err)
	}
	if n, err := x.Compact(); n != 0 || err != nil {
		t.Fatalf("Compact = %d, %v, want 0, nil", n, err)
	}
	if !x.Frozen() || x.NumDocs() != 48 || x.NumShards() != 1 || x.Epoch() != 0 || !x.Stats().Ready() {
		t.Fatalf("frozen %v, %d docs, %d shards, epoch %d, ready %v",
			x.Frozen(), x.NumDocs(), x.NumShards(), x.Epoch(), x.Stats().Ready())
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOneShardFoldInMatchesAppendDocuments(t *testing.T) {
	a := testMatrix(t, 3, 12, 40, 302)
	plain, err := lsi.Build(a, 3, lsi.Options{Engine: lsi.EngineRandomized, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	x, err := Build(a, defaultIDs(40), Config{Shards: 1, Rank: 3, Engine: lsi.EngineRandomized, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()

	// Fold columns 0..9 back in through both paths.
	var dense [][]float64
	var docs []Doc
	for j := 0; j < 10; j++ {
		dense = append(dense, a.Col(j))
		terms, weights := sparseCol(a, j)
		docs = append(docs, Doc{Terms: terms, Weights: weights})
	}
	if _, err := plain.AppendDocuments(dense); err != nil {
		t.Fatal(err)
	}
	first, err := x.AddBatch(docs)
	if err != nil {
		t.Fatal(err)
	}
	if first != 40 {
		t.Fatalf("first global %d, want 40", first)
	}
	if x.NumDocs() != 50 {
		t.Fatalf("NumDocs %d, want 50", x.NumDocs())
	}
	for j := 0; j < 8; j++ {
		terms, weights := sparseCol(a, j)
		sameMatches(t, searchSparse(x, terms, weights, 12), plain.SearchSparse(terms, weights, 12), "after fold-in")
	}
}

func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	a := testMatrix(t, 4, 12, 90, 303)
	for _, shards := range []int{1, 3, 4} {
		x, err := Build(a, defaultIDs(90), Config{Shards: shards, Rank: 3, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		qt, qw := sparseCol(a, 2)
		prev := par.SetMaxProcs(1)
		want := searchSparse(x, qt, qw, 13)
		for _, workers := range []int{2, 5, 8} {
			par.SetMaxProcs(workers)
			sameMatches(t, searchSparse(x, qt, qw, 13), want, "workers")
		}
		par.SetMaxProcs(prev)
		// Rebuilding the same index reproduces the same results.
		x2, err := Build(a, defaultIDs(90), Config{Shards: shards, Rank: 3, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		sameMatches(t, searchSparse(x2, qt, qw, 13), want, "rebuild")
		x.Close()
		x2.Close()
	}
}

func TestShardedCoversAllDocuments(t *testing.T) {
	a := testMatrix(t, 3, 12, 50, 304)
	x, err := Build(a, defaultIDs(50), Config{Shards: 4, Rank: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	terms, weights := sparseCol(a, 0)
	res := searchSparse(x, terms, weights, 0)
	if len(res) != 50 {
		t.Fatalf("full search returned %d docs, want 50", len(res))
	}
	seen := make([]bool, 50)
	for _, m := range res {
		if m.Doc < 0 || m.Doc >= 50 || seen[m.Doc] {
			t.Fatalf("bad or duplicate doc %d", m.Doc)
		}
		seen[m.Doc] = true
	}
	// Best-first under (score desc, doc asc).
	for i := 1; i < len(res); i++ {
		if topk.Better(res[i], res[i-1]) {
			t.Fatalf("results out of order at %d: %+v before %+v", i, res[i-1], res[i])
		}
	}
}

func TestSealAndCompactLifecycle(t *testing.T) {
	a := testMatrix(t, 3, 12, 30, 305)
	x, err := Build(a, defaultIDs(30), Config{Shards: 2, Rank: 3, Seed: 3, SealEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()

	// Ingest 40 documents (recycled columns) one at a time: each shard
	// receives 20, sealing two segments of 8 and leaving a live of 4.
	for i := 0; i < 40; i++ {
		terms, weights := sparseCol(a, i%30)
		if _, err := x.Add(Doc{Terms: terms, Weights: weights}); err != nil {
			t.Fatal(err)
		}
	}
	st := x.Stats()
	if st.Docs != 70 || x.NumDocs() != 70 {
		t.Fatalf("docs %d/%d, want 70", st.Docs, x.NumDocs())
	}
	if st.SealedPending != 4 {
		t.Fatalf("sealed pending %d, want 4 (two per shard)", st.SealedPending)
	}
	if st.Live != 2 {
		t.Fatalf("live segments %d, want 2", st.Live)
	}
	if x.Stats().Ready() {
		t.Fatal("index claims ready with sealed segments pending")
	}

	qt, qw := sparseCol(a, 1)
	before := searchSparse(x, qt, qw, 0)

	n, err := x.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("compacted %d segments, want 4", n)
	}
	if !x.Stats().Ready() {
		t.Fatal("index not ready after compaction")
	}
	st = x.Stats()
	if st.SealedPending != 0 || st.Compacted != 4 { // 2 base + 2 merged rebuilds
		t.Fatalf("after compaction: %+v", st)
	}
	if st.Docs != 70 {
		t.Fatalf("compaction changed doc count: %d", st.Docs)
	}

	// Same document set, same global IDs; representation (and scores) may
	// differ, coverage must not.
	after := searchSparse(x, qt, qw, 0)
	if len(after) != len(before) {
		t.Fatalf("compaction changed coverage: %d vs %d", len(after), len(before))
	}
	seen := make([]bool, 70)
	for _, m := range after {
		if m.Doc < 0 || m.Doc >= 70 || seen[m.Doc] {
			t.Fatalf("bad or duplicate doc %d after compaction", m.Doc)
		}
		seen[m.Doc] = true
	}

	// Compaction is deterministic: a replayed index compacted at the same
	// point returns identical post-compaction scores.
	y, err := Build(a, defaultIDs(30), Config{Shards: 2, Rank: 3, Seed: 3, SealEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer y.Close()
	for i := 0; i < 40; i++ {
		terms, weights := sparseCol(a, i%30)
		if _, err := y.Add(Doc{Terms: terms, Weights: weights}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := y.Compact(); err != nil {
		t.Fatal(err)
	}
	sameMatches(t, searchSparse(y, qt, qw, 0), after, "replayed compaction")
}

// A sealed segment that cannot be rebuilt must not fail silently: its
// debt stays (and past -max-debt sheds ingest), so the failure is
// counted and its message kept where /v1/stats and /metrics read them.
func TestCompactionFailureIsCounted(t *testing.T) {
	a := testMatrix(t, 3, 12, 30, 307)
	x, err := Build(a, defaultIDs(30), Config{Shards: 1, Rank: 3, Seed: 3, SealEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for i := 0; i < 8; i++ {
		terms, weights := sparseCol(a, i)
		if _, err := x.Add(Doc{Terms: terms, Weights: weights}); err != nil {
			t.Fatal(err)
		}
	}
	if n, msg := x.CompactionFailures(); n != 0 || msg != "" {
		t.Fatalf("fresh index reports %d failures, %q", n, msg)
	}

	// Plant the fault: republish the sealed segment with a raw document
	// carrying a term beyond the vocabulary (Add would have refused it).
	sh := x.shards[0]
	st := sh.state.Load()
	sealed := len(st.stable) - 1
	if !compactable(st.stable[sealed]) {
		t.Fatal("no sealed segment to corrupt")
	}
	bad := *st.stable[sealed]
	terms := append([][]int(nil), bad.Raw.Terms...)
	terms[0] = append(append([]int(nil), terms[0]...), x.NumTerms()+7)
	weights := append([][]float64(nil), bad.Raw.Weights...)
	weights[0] = append(append([]float64(nil), weights[0]...), 1)
	bad.Raw = &segment.Raw{Terms: terms, Weights: weights}
	stable := append([]*segment.Segment(nil), st.stable...)
	stable[sealed] = &bad
	sh.state.Store(&shardState{epoch: st.epoch + 1, stable: stable, live: st.live})

	debt := x.Stats().SealedPending
	for pass := int64(1); pass <= 2; pass++ {
		if _, err := x.Compact(); err == nil {
			t.Fatal("compacting an out-of-range raw document did not fail")
		}
		n, msg := x.CompactionFailures()
		if n != pass || !strings.Contains(msg, "out of range") {
			t.Fatalf("pass %d: %d failures, message %q", pass, n, msg)
		}
	}
	ss := x.Stats()
	if ss.CompactionFailures != 2 || !strings.Contains(ss.LastCompactionError, "out of range") {
		t.Fatalf("stats: %d failures, %q", ss.CompactionFailures, ss.LastCompactionError)
	}
	if got := x.Stats().SealedPending; got != debt || debt == 0 {
		t.Fatalf("debt %d after failed passes, was %d", got, debt)
	}
	if ss.Compactions != 0 {
		t.Fatalf("%d compactions recorded by failed passes", ss.Compactions)
	}
	// The segment that could not be rebuilt still serves.
	qt, qw := sparseCol(a, 1)
	if got := len(searchSparse(x, qt, qw, 0)); got != 38 {
		t.Fatalf("search covers %d documents after failed compaction, want 38", got)
	}
}

func TestIngestIntoEmptyShard(t *testing.T) {
	// 2 documents over 3 shards: shard 2 starts empty and must bootstrap
	// its basis from its first ingested documents.
	a := testMatrix(t, 2, 10, 2, 306)
	x, err := Build(a, defaultIDs(2), Config{Shards: 3, Rank: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	terms, weights := sparseCol(a, 0)
	g, err := x.Add(Doc{ID: "fresh", Terms: terms, Weights: weights})
	if err != nil {
		t.Fatal(err)
	}
	if g != 2 {
		t.Fatalf("global %d, want 2", g)
	}
	if x.ExternalID(2) != "fresh" {
		t.Fatalf("external ID %q", x.ExternalID(2))
	}
	res := searchSparse(x, terms, weights, 0)
	if len(res) != 3 {
		t.Fatalf("%d results, want 3", len(res))
	}
	found := false
	for _, m := range res {
		if m.Doc == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("ingested document missing from results")
	}
}

func TestAddValidation(t *testing.T) {
	a := testMatrix(t, 2, 10, 10, 307)
	x, err := Build(a, defaultIDs(10), Config{Shards: 2, Rank: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if _, err := x.AddBatch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := x.Add(Doc{Terms: []int{0}, Weights: []float64{1, 2}}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := x.Add(Doc{Terms: []int{x.NumTerms()}, Weights: []float64{1}}); err == nil {
		t.Fatal("out-of-range term accepted")
	}
	if x.NumDocs() != 10 {
		t.Fatalf("failed adds changed NumDocs to %d", x.NumDocs())
	}
	x.Close()
	if _, err := x.Add(Doc{Terms: []int{0}, Weights: []float64{1}}); err != ErrClosed {
		t.Fatalf("add after close: %v, want ErrClosed", err)
	}
}

func TestSaveDirOpenRoundTrip(t *testing.T) {
	a := testMatrix(t, 3, 12, 45, 308)
	x, err := Build(a, defaultIDs(45), Config{Shards: 3, Rank: 3, Seed: 21, SealEvery: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	// Mix of lifecycle states: ingest enough to seal some segments and
	// leave a live one, compact one pass, ingest a little more.
	addSome := func(n, from int) {
		for i := 0; i < n; i++ {
			terms, weights := sparseCol(a, (from+i)%45)
			if _, err := x.Add(Doc{ID: "added", Terms: terms, Weights: weights}); err != nil {
				t.Fatal(err)
			}
		}
	}
	addSome(20, 0)
	if _, err := x.Compact(); err != nil {
		t.Fatal(err)
	}
	addSome(7, 20)

	dir := filepath.Join(t.TempDir(), "idx")
	if err := x.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	y, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer y.Close()

	if y.NumDocs() != x.NumDocs() || y.NumTerms() != x.NumTerms() || y.NumShards() != x.NumShards() {
		t.Fatalf("reloaded dims docs=%d terms=%d shards=%d", y.NumDocs(), y.NumTerms(), y.NumShards())
	}
	if y.ExternalID(46) != "added" {
		t.Fatalf("reloaded external ID %q", y.ExternalID(46))
	}
	for j := 0; j < 10; j++ {
		terms, weights := sparseCol(a, j)
		sameMatches(t, searchSparse(y, terms, weights, 15), searchSparse(x, terms, weights, 15), "reloaded")
	}

	// The reloaded index keeps accepting documents.
	terms, weights := sparseCol(a, 3)
	if _, err := y.Add(Doc{Terms: terms, Weights: weights}); err != nil {
		t.Fatal(err)
	}
	if y.NumDocs() != x.NumDocs()+1 {
		t.Fatalf("reloaded NumDocs %d after add", y.NumDocs())
	}

	// Save the reloaded index again: a second round trip stays identical.
	dir2 := filepath.Join(t.TempDir(), "idx2")
	if err := y.SaveDir(dir2); err != nil {
		t.Fatal(err)
	}
	z, err := Open(dir2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer z.Close()
	sameMatches(t, searchSparse(z, terms, weights, 15), searchSparse(y, terms, weights, 15), "second round trip")
}

func TestCompactionBoundsSegmentCount(t *testing.T) {
	// Unbounded ingest with a compaction pass after every seal: the
	// size-tiered merge policy must keep the per-shard segment count
	// logarithmic (each surviving tier outweighs everything younger), not
	// one segment per pass.
	a := testMatrix(t, 3, 12, 20, 309)
	x, err := Build(a, defaultIDs(20), Config{Shards: 1, Rank: 3, Seed: 5, SealEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	passes := 0
	for i := 0; i < 400; i++ {
		terms, weights := sparseCol(a, i%20)
		if _, err := x.Add(Doc{Terms: terms, Weights: weights}); err != nil {
			t.Fatal(err)
		}
		if x.Stats().SealedPending > 0 {
			if _, err := x.Compact(); err != nil {
				t.Fatal(err)
			}
			passes++
		}
	}
	st := x.Stats()
	if passes < 40 {
		t.Fatalf("only %d compaction passes ran", passes)
	}
	// 420 docs at 8/seal with ~50 passes: one base + O(log) tiers + at
	// most one live. Without tier merging this would be ~50 segments.
	if st.Segments > 12 {
		t.Fatalf("segment count grew to %d after %d passes (tier merging broken): %+v", st.Segments, passes, st)
	}
	if st.Docs != 420 {
		t.Fatalf("docs %d, want 420", st.Docs)
	}
	// Coverage survives the repeated merges.
	terms, weights := sparseCol(a, 0)
	res := searchSparse(x, terms, weights, 0)
	if len(res) != 420 {
		t.Fatalf("full search returned %d docs", len(res))
	}
	seen := make([]bool, 420)
	for _, m := range res {
		if m.Doc < 0 || m.Doc >= 420 || seen[m.Doc] {
			t.Fatalf("bad or duplicate doc %d", m.Doc)
		}
		seen[m.Doc] = true
	}
}

func TestResaveIsCrashSafe(t *testing.T) {
	a := testMatrix(t, 3, 12, 24, 310)
	x, err := Build(a, defaultIDs(24), Config{Shards: 2, Rank: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	dir := filepath.Join(t.TempDir(), "idx")
	if err := x.SaveDir(dir); err != nil {
		t.Fatal(err)
	}

	// Simulate a crashed later save: data files from a newer generation
	// exist (some even corrupt) but the manifest was never switched. Open
	// must serve the old index untouched.
	if err := os.WriteFile(filepath.Join(dir, "seg-1-0-0.idx"), []byte("garbage from a crashed save"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ids-1.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	y, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("open with crashed-save leftovers: %v", err)
	}
	if y.NumDocs() != 24 {
		t.Fatalf("reloaded %d docs", y.NumDocs())
	}
	y.Close()

	// A subsequent save must skip past the leftover generation (never
	// reuse a name that might be referenced) and retire stale data files
	// only after its manifest is live.
	terms, weights := sparseCol(a, 0)
	if _, err := x.Add(Doc{Terms: terms, Weights: weights}); err != nil {
		t.Fatal(err)
	}
	if err := x.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	man, err := ParseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if man.Generation != 2 {
		t.Fatalf("generation %d, want 2 (skipping the crashed save's 1)", man.Generation)
	}
	// Old generations are cleaned up; only generation-2 data files remain.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if name == ManifestName {
			continue
		}
		var g, s2, i2 int
		if n, _ := fmt.Sscanf(name, "seg-%d-%d-%d.idx", &g, &s2, &i2); n == 3 && g != 2 {
			t.Fatalf("stale segment file %s survived cleanup", name)
		}
		if n, _ := fmt.Sscanf(name, "ids-%d.json", &g); n == 1 && g != 2 {
			t.Fatalf("stale ids file %s survived cleanup", name)
		}
	}
	z, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer z.Close()
	if z.NumDocs() != 25 {
		t.Fatalf("re-saved index has %d docs, want 25", z.NumDocs())
	}
	sameMatches(t, searchSparse(z, terms, weights, 10), searchSparse(x, terms, weights, 10), "re-saved")
}

func TestEpochBumpsAfterAddAndCompact(t *testing.T) {
	a := testMatrix(t, 3, 12, 30, 311)
	x, err := Build(a, defaultIDs(30), Config{Shards: 2, Rank: 3, SealEvery: 4, AutoCompact: false})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()

	if got := x.Epoch(); got != 0 {
		t.Fatalf("epoch after Build = %d, want 0", got)
	}
	terms, weights := sparseCol(a, 0)
	for i := 1; i <= 8; i++ {
		if _, err := x.Add(Doc{ID: "new", Terms: terms, Weights: weights}); err != nil {
			t.Fatal(err)
		}
		if got := x.Epoch(); got != uint64(i) {
			t.Fatalf("epoch after add %d = %d, want %d (one bump per published batch)", i, got, i)
		}
	}
	before := x.Epoch()
	n, err := x.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("expected sealed segments to compact (SealEvery=4, 8 adds across 2 shards)")
	}
	if got := x.Epoch(); got <= before {
		t.Fatalf("epoch after compaction = %d, want > %d", got, before)
	}
	// A no-op compaction publishes nothing and must not move the epoch.
	before = x.Epoch()
	if _, err := x.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := x.Epoch(); got != before {
		t.Fatalf("no-op compaction moved the epoch %d -> %d", before, got)
	}
}

// TestColumnSubsetMatchesCOO holds the direct CSR fill of columnSubset to
// the COO round trip it replaced, bit for bit: the same dimensions, and in
// every row the same columns with the same value bits, for shard counts
// that divide the documents, that do not, and that leave shards empty.
func TestColumnSubsetMatchesCOO(t *testing.T) {
	a := testMatrix(t, 4, 12, 90, 306)
	n, m := a.Dims()
	for _, shards := range []int{2, 3, 7, 89, 120} {
		for s := 0; s < shards; s++ {
			got, globals := columnSubset(a, s, shards)
			var want *sparse.CSR
			if len(globals) > 0 {
				coo := sparse.NewCOO(n, len(globals))
				for tm := 0; tm < n; tm++ {
					a.RowIter(tm, func(j int, v float64) {
						if j%shards == s {
							coo.Add(tm, j/shards, v)
						}
					})
				}
				want = coo.ToCSR()
			}
			for l, g := range globals {
				if g != s+l*shards {
					t.Fatalf("%d shards, shard %d: global %d at local %d", shards, s, g, l)
				}
			}
			if (got == nil) != (want == nil) || len(globals) != (m-s+shards-1)/shards {
				t.Fatalf("%d shards, shard %d: %d globals, subset %v", shards, s, len(globals), got != nil)
			}
			if got == nil {
				continue
			}
			if gr, gc := got.Dims(); gr != n || gc != len(globals) || got.NNZ() != want.NNZ() {
				t.Fatalf("%d shards, shard %d: %dx%d with %d nonzeros, want %dx%d with %d",
					shards, s, gr, gc, got.NNZ(), n, len(globals), want.NNZ())
			}
			for tm := 0; tm < n; tm++ {
				var gotRow, wantRow []uint64
				got.RowIter(tm, func(j int, v float64) { gotRow = append(gotRow, uint64(j), math.Float64bits(v)) })
				want.RowIter(tm, func(j int, v float64) { wantRow = append(wantRow, uint64(j), math.Float64bits(v)) })
				if !slices.Equal(gotRow, wantRow) {
					t.Fatalf("%d shards, shard %d, row %d: %v, want %v", shards, s, tm, gotRow, wantRow)
				}
			}
		}
	}
}

// TestBuildReportsLowestFailingShard: shards build concurrently, yet a
// build that fails reports the lowest-numbered failing shard, as a serial
// loop would, at every worker count.
func TestBuildReportsLowestFailingShard(t *testing.T) {
	a := testMatrix(t, 3, 12, 60, 307)
	for _, procs := range []int{1, 2, 8} {
		old := par.SetMaxProcs(procs)
		_, err := Build(a, defaultIDs(60), Config{Shards: 4, Rank: 3, Engine: lsi.Engine(99)})
		par.SetMaxProcs(old)
		if err == nil || !strings.HasPrefix(err.Error(), "shard 0: ") {
			t.Fatalf("MaxProcs=%d: error %v, want shard 0's", procs, err)
		}
	}
}
