package shard

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/par"
	"repro/internal/segment"
)

// quantConfig is the test configuration of the int8 tier: every
// compacted segment builds a shadow, however small.
func quantConfig(shards int) Config {
	return Config{Shards: shards, Rank: 4, Seed: 77, SealEvery: 8, Quantize: true, TierMinDocs: 1}
}

// quantSegments counts published segments carrying an int8 shadow.
func quantSegments(x *Index) int {
	n := 0
	for _, seg := range x.Segments(nil) {
		if seg.Quant != nil {
			n++
		}
	}
	return n
}

func TestQuantBuildTrainsCompactedSegments(t *testing.T) {
	a := testMatrix(t, 4, 10, 60, 501)
	x, err := Build(a, defaultIDs(60), nil, quantConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if got := quantSegments(x); got != 2 {
		t.Fatalf("%d quantized segments after build, want 2 (one per shard)", got)
	}
	st := x.Stats()
	if st.QuantSegs != 2 || st.QuantDocs != 60 {
		t.Fatalf("Stats quant block = %d segments / %d docs, want 2 / 60", st.QuantSegs, st.QuantDocs)
	}
	if st.QuantBytes <= 0 {
		t.Fatalf("QuantBytes = %d, want > 0", st.QuantBytes)
	}
}

func TestQuantEscapeHatchBitwiseExact(t *testing.T) {
	a := testMatrix(t, 4, 10, 80, 502)
	x, err := Build(a, defaultIDs(80), nil, quantConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for j := 0; j < 12; j++ {
		terms, weights := sparseCol(a, j)
		want := searchSparse(x, terms, weights, 10)
		// Zero options are the exhaustive escape hatch: bitwise-equal to
		// the plain search, no tier counters moved.
		got, st := x.SearchSparseOpts(terms, weights, 10, segment.ProbeOptions{})
		sameMatches(t, got, want, "escape hatch")
		if st.QuantSegs != 0 || st.ExactDocs != 80 {
			t.Fatalf("escape hatch stats %+v, want pure exhaustive scan", st)
		}
		// A beta so large the rerank covers every document degenerates to
		// the exact pass: still bitwise-equal.
		got, st = x.SearchSparseOpts(terms, weights, 10, segment.ProbeOptions{Beta: 1000})
		sameMatches(t, got, want, "saturated beta")
	}
}

func TestQuantSearchMatchesTopResults(t *testing.T) {
	a := testMatrix(t, 4, 10, 100, 503)
	x, err := Build(a, defaultIDs(100), nil, quantConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for j := 0; j < 10; j++ {
		terms, weights := sparseCol(a, j)
		want := searchSparse(x, terms, weights, 5)
		got, st := x.SearchSparseOpts(terms, weights, 5, segment.ProbeOptions{Beta: 4})
		if st.QuantSegs != 2 {
			t.Fatalf("stats %+v, want both segments on the int8 path", st)
		}
		// Reranked exact scores mean every returned score is a true
		// float64 cosine; the top result should agree with the exact
		// search (the int8 stage only risks dropping near-ties deeper in
		// the list).
		if len(got) == 0 || len(want) == 0 {
			t.Fatal("empty results")
		}
		if got[0].Doc != want[0].Doc || got[0].Score != want[0].Score {
			t.Fatalf("query %d: quantized top hit (%d, %v) != exact (%d, %v)",
				j, got[0].Doc, got[0].Score, want[0].Doc, want[0].Score)
		}
	}
}

func TestQuantDeterministicAcrossWorkers(t *testing.T) {
	a := testMatrix(t, 4, 10, 90, 504)
	x, err := Build(a, defaultIDs(90), nil, quantConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	terms, weights := sparseCol(a, 5)
	opts := segment.ProbeOptions{Beta: 3}
	prev := par.SetMaxProcs(1)
	want, _ := x.SearchSparseOpts(terms, weights, 12, opts)
	par.SetMaxProcs(prev)
	for _, workers := range []int{2, 3, 8} {
		prev := par.SetMaxProcs(workers)
		got, _ := x.SearchSparseOpts(terms, weights, 12, opts)
		par.SetMaxProcs(prev)
		sameMatches(t, got, want, "quantized search across workers")
	}
}

func TestQuantMixedSegmentsLiveStayFloat(t *testing.T) {
	a := testMatrix(t, 4, 10, 40, 505)
	cfg := quantConfig(1)
	cfg.AutoCompact = false
	x, err := Build(a, defaultIDs(40), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	// Fold in documents: they land in a live segment with no shadow and
	// must be served in float alongside the quantized initial segment.
	for i := 0; i < 5; i++ {
		terms, weights := sparseCol(a, i)
		if _, err := x.Add(Doc{ID: "live", Terms: terms, Weights: weights}); err != nil {
			t.Fatal(err)
		}
	}
	terms, weights := sparseCol(a, 2)
	got, st := x.SearchSparseOpts(terms, weights, 45, segment.ProbeOptions{Beta: 1000})
	if st.QuantSegs != 1 || st.ExactDocs != 5 {
		t.Fatalf("mixed stats %+v, want 1 quantized segment and 5 exact docs", st)
	}
	sameMatches(t, got, searchSparse(x, terms, weights, 45), "mixed saturated beta")
	found := false
	for _, m := range got {
		if m.Doc >= 40 {
			found = true
		}
	}
	if !found {
		t.Fatal("no live-segment document in results")
	}
}

func TestQuantCompactorRebuilds(t *testing.T) {
	a := testMatrix(t, 4, 10, 30, 506)
	cfg := quantConfig(1)
	cfg.AutoCompact = false
	x, err := Build(a, defaultIDs(30), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for i := 0; i < 20; i++ {
		terms, weights := sparseCol(a, i%30)
		if _, err := x.Add(Doc{Terms: terms, Weights: weights}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := x.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, seg := range x.Segments(nil) {
		if seg.Compacted && seg.Quant == nil {
			t.Fatal("compacted segment left without an int8 shadow")
		}
		if !seg.Compacted && seg.Quant != nil {
			t.Fatal("fold-in segment carries an int8 shadow")
		}
	}
}

func TestQuantMinDocsGate(t *testing.T) {
	a := testMatrix(t, 4, 10, 50, 507)
	cfg := quantConfig(1)
	cfg.TierMinDocs = 1000
	x, err := Build(a, defaultIDs(50), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if got := quantSegments(x); got != 0 {
		t.Fatalf("%d quantized segments under a 1000-doc threshold, want 0", got)
	}
	// The opts search still works — it just scans in float.
	terms, weights := sparseCol(a, 1)
	got, st := x.SearchSparseOpts(terms, weights, 10, segment.ProbeOptions{Beta: 4})
	if st.QuantSegs != 0 || st.ExactDocs != 50 {
		t.Fatalf("stats %+v, want pure exhaustive scan", st)
	}
	sameMatches(t, got, searchSparse(x, terms, weights, 10), "gated")
}

func TestQuantSaveOpenRoundTrip(t *testing.T) {
	a := testMatrix(t, 4, 10, 70, 508)
	x, err := Build(a, defaultIDs(70), nil, quantConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	dir := filepath.Join(t.TempDir(), "idx")
	if err := x.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, sidecars := countParts(t, dir); sidecars != 2 {
		t.Fatalf("%d quant sidecars on disk, want 2", sidecars)
	}

	// Reopening with NO quant config still loads the sidecars and serves
	// quantized searches identical to the saved index.
	y, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer y.Close()
	if got := quantSegments(y); got != 2 {
		t.Fatalf("%d quantized segments after open, want 2", got)
	}
	opts := segment.ProbeOptions{Beta: 3}
	for j := 0; j < 8; j++ {
		terms, weights := sparseCol(a, j)
		want, _ := x.SearchSparseOpts(terms, weights, 10, opts)
		got, _ := y.SearchSparseOpts(terms, weights, 10, opts)
		sameMatches(t, got, want, "reloaded quantized search")
	}

	// A re-save retires the old generation, sidecars and all.
	if err := y.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	onlyFile(t, dir)
}

func TestQuantOpenBuildsWhenSidecarMissing(t *testing.T) {
	a := testMatrix(t, 4, 10, 40, 509)
	// Save WITHOUT the quantized tier...
	x, err := Build(a, defaultIDs(40), nil, Config{Shards: 2, Rank: 4, Seed: 77, SealEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	dir := filepath.Join(t.TempDir(), "idx")
	if err := x.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	// ...and open WITH it: segments quantize in place.
	y, err := Open(dir, Config{Quantize: true, TierMinDocs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer y.Close()
	if got := quantSegments(y); got != 2 {
		t.Fatalf("%d quantized segments after quant-enabled open, want 2", got)
	}
	terms, weights := sparseCol(a, 3)
	got, _ := y.SearchSparseOpts(terms, weights, 10, segment.ProbeOptions{Beta: 1000})
	sameMatches(t, got, searchSparse(y, terms, weights, 10), "built-on-open saturated beta")
}

func TestQuantExportCarriesSidecars(t *testing.T) {
	a := testMatrix(t, 4, 10, 60, 510)
	x, err := Build(a, defaultIDs(60), nil, quantConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	dir := filepath.Join(t.TempDir(), "node0")
	if err := x.SaveShardDir(0, dir); err != nil {
		t.Fatal(err)
	}
	y, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer y.Close()
	if got := quantSegments(y); got != 1 {
		t.Fatalf("%d quantized segments in exported shard, want 1", got)
	}
	terms, weights := sparseCol(a, 0)
	got, _ := y.SearchSparseOpts(terms, weights, 10, segment.ProbeOptions{Beta: 1000})
	sameMatches(t, got, searchSparse(y, terms, weights, 10), "exported saturated beta")
}

func TestQuantStatsCounters(t *testing.T) {
	a := testMatrix(t, 4, 10, 50, 511)
	x, err := Build(a, defaultIDs(50), nil, quantConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	terms, weights := sparseCol(a, 4)
	_, st := x.SearchSparseOpts(terms, weights, 5, segment.ProbeOptions{Beta: 2})
	if st.QuantSegs != 1 || st.QuantDocs != 50 || st.Reranked <= 0 || st.Reranked >= 50 {
		t.Fatalf("quant stats %+v, want a full int8 scan and a partial rerank", st)
	}
	var c segment.Counters
	c.Add(st)
	_, ps := x.SearchSparseOpts(terms, weights, 5, segment.ProbeOptions{})
	c.Add(ps)
	if ps.QuantSegs != 0 || ps.ExactDocs != x.NumDocs() {
		t.Fatalf("escape hatch used the int8 tier: %+v", ps)
	}
	if tot := c.Totals(); tot != (segment.Totals{QuantSearches: 1, QuantDocs: int64(st.QuantDocs), QuantReranks: int64(st.Reranked)}) {
		t.Fatalf("accumulated %+v after %+v and %+v", tot, st, ps)
	}
}

func TestQuantComposesWithANN(t *testing.T) {
	a := testMatrix(t, 4, 10, 90, 512)
	cfg := quantConfig(2)
	cfg.ANNList = 6
	x, err := Build(a, defaultIDs(90), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	terms, weights := sparseCol(a, 7)
	// Both tiers on: IVF narrows the candidate set, int8 scores it, exact
	// float reranks. Stats must show both tiers at work on every segment.
	got, st := x.SearchSparseOpts(terms, weights, 8, segment.ProbeOptions{NProbe: 2, Beta: 4})
	if st.Probed != 2 || st.QuantSegs != 2 {
		t.Fatalf("composed stats %+v, want both tiers on both segments", st)
	}
	if len(got) == 0 {
		t.Fatal("composed search returned nothing")
	}
	// Scores are exact-reranked: every returned score must equal the
	// exact cosine the plain search computes for that document.
	exact := searchSparse(x, terms, weights, 90)
	score := map[int]float64{}
	for _, m := range exact {
		score[m.Doc] = m.Score
	}
	for _, m := range got {
		if s, ok := score[m.Doc]; !ok || s != m.Score {
			t.Fatalf("doc %d: composed score %v != exact %v", m.Doc, m.Score, s)
		}
	}
	// Full-coverage budgets on both tiers recover the exact results.
	full, _ := x.SearchSparseOpts(terms, weights, 10, segment.ProbeOptions{NProbe: 99, Beta: 1000})
	sameMatches(t, full, searchSparse(x, terms, weights, 10), "saturated compose")
}

// Sidecars are derived state: a checkpoint whose IVF part is torn short
// and whose int8 part has a flipped byte opens anyway, counts both, serves
// the affected segments by exact scan — a saturated-budget search is
// bitwise the exhaustive one — and retrains them when the opening config
// asks for the tiers.
func TestOpenSurvivesCorruptAndMissingSidecars(t *testing.T) {
	a := testMatrix(t, 4, 10, 90, 513)
	cfg := quantConfig(2)
	cfg.ANNList = 6
	x, err := Build(a, defaultIDs(90), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	dir := filepath.Join(t.TempDir(), "idx")
	if err := x.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	editCheckpoint(t, dir, func(parts [][]Part) {
		ann, qnt := parts[0][0].ANN, bytes.Clone(parts[1][0].Quant)
		qnt[len(qnt)/2] ^= 0x01
		parts[0][0].ANN, parts[1][0].Quant = ann[:len(ann)/2], qnt
	})
	for name, tc := range map[string]struct {
		cfg        Config
		ann, quant int
	}{
		"as saved":  {Config{}, 1, 1},
		"retrained": {Config{ANNList: 6, Quantize: true, TierMinDocs: 1}, 2, 2},
	} {
		y, err := Open(dir, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer y.Close()
		if got := y.Stats().SidecarsDegraded; got != 2 {
			t.Errorf("%s: %d sidecars counted as degraded, want 2", name, got)
		}
		if ann, qnt := annSegments(y), quantSegments(y); ann != tc.ann || qnt != tc.quant {
			t.Errorf("%s: %d quantized and %d int8 segments, want %d and %d", name, ann, qnt, tc.ann, tc.quant)
		}
		for j := 0; j < 8; j++ {
			terms, weights := sparseCol(a, j)
			want := searchSparse(x, terms, weights, 10)
			got, _ := y.SearchSparseOpts(terms, weights, 10, segment.ProbeOptions{NProbe: 99, Beta: 1000})
			sameMatches(t, got, want, name+": saturated budgets")
			sameMatches(t, searchSparse(y, terms, weights, 10), want, name+": exact scan")
		}
	}
}
