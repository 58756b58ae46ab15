package shard

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/par"
	"repro/internal/segment"
)

// annConfig is the test configuration of the ANN tier: every compacted
// segment trains, however small.
func annConfig(shards int) Config {
	return Config{Shards: shards, Rank: 4, Seed: 77, SealEvery: 8, ANNList: 6, ANNProbe: 2, TierMinDocs: 1}
}

// annSegments counts published segments carrying a quantizer.
func annSegments(x *Index) int {
	n := 0
	for _, seg := range x.Segments(nil) {
		if seg.Ann != nil {
			n++
		}
	}
	return n
}

func TestANNBuildTrainsCompactedSegments(t *testing.T) {
	a := testMatrix(t, 4, 10, 60, 401)
	x, err := Build(a, defaultIDs(60), annConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if got := annSegments(x); got != 2 {
		t.Fatalf("%d quantized segments after build, want 2 (one per shard)", got)
	}
	st := x.Stats()
	if st.AnnSegs != 2 || st.AnnDocs != 60 {
		t.Fatalf("Stats ANN block = %d segments / %d docs, want 2 / 60", st.AnnSegs, st.AnnDocs)
	}
}

func TestANNFullProbeMatchesExhaustiveBitwise(t *testing.T) {
	a := testMatrix(t, 4, 10, 80, 402)
	x, err := Build(a, defaultIDs(80), annConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for j := 0; j < 12; j++ {
		terms, weights := sparseCol(a, j)
		want := searchSparse(x, terms, weights, 10)
		// nprobe >= nlist probes every cell: bitwise-equal to exhaustive.
		got, st := x.SearchSparseOpts(terms, weights, 10, segment.ProbeOptions{NProbe: 99})
		sameMatches(t, got, want, "full probe")
		if st.Probed != 3 || st.ExactDocs != 0 {
			t.Fatalf("full probe stats %+v, want 3 probed segments and no exact scan", st)
		}
		// nprobe <= 0 is the exhaustive escape hatch.
		got, st = x.SearchSparseOpts(terms, weights, 10, segment.ProbeOptions{NProbe: 0})
		sameMatches(t, got, want, "escape hatch")
		if st.Probed != 0 || st.ExactDocs != 80 {
			t.Fatalf("escape hatch stats %+v, want pure exhaustive scan", st)
		}
	}
}

func TestANNProbeDeterministicAcrossWorkers(t *testing.T) {
	a := testMatrix(t, 4, 10, 90, 403)
	x, err := Build(a, defaultIDs(90), annConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	terms, weights := sparseCol(a, 5)
	prev := par.SetMaxProcs(1)
	want, _ := x.SearchSparseOpts(terms, weights, 12, segment.ProbeOptions{NProbe: 2})
	par.SetMaxProcs(prev)
	for _, workers := range []int{2, 3, 8} {
		prev := par.SetMaxProcs(workers)
		got, _ := x.SearchSparseOpts(terms, weights, 12, segment.ProbeOptions{NProbe: 2})
		par.SetMaxProcs(prev)
		sameMatches(t, got, want, "probe across workers")
	}
}

func TestANNMixedSegmentsLiveStayExact(t *testing.T) {
	a := testMatrix(t, 4, 10, 40, 404)
	cfg := annConfig(1)
	cfg.AutoCompact = false
	x, err := Build(a, defaultIDs(40), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	// Fold in a few documents: they land in a live segment with no
	// quantizer and must be served exhaustively alongside the probed
	// initial segment.
	for i := 0; i < 5; i++ {
		terms, weights := sparseCol(a, i)
		if _, err := x.Add(Doc{ID: "live", Terms: terms, Weights: weights}); err != nil {
			t.Fatal(err)
		}
	}
	terms, weights := sparseCol(a, 2)
	got, st := x.SearchSparseOpts(terms, weights, 45, segment.ProbeOptions{NProbe: 99})
	if st.Probed != 1 || st.ExactDocs != 5 {
		t.Fatalf("mixed stats %+v, want 1 probed segment and 5 exact docs", st)
	}
	sameMatches(t, got, searchSparse(x, terms, weights, 45), "mixed full probe")
	// The folded duplicates of column 2 (globals 40..44 include one) must
	// be findable — i.e. the live segment genuinely participates.
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

func TestANNCompactorRetrains(t *testing.T) {
	a := testMatrix(t, 4, 10, 30, 405)
	cfg := annConfig(1)
	cfg.AutoCompact = false
	x, err := Build(a, defaultIDs(30), cfg)
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
		if seg.Compacted && seg.Ann == nil {
			t.Fatal("compacted segment left without a quantizer")
		}
		if !seg.Compacted && seg.Ann != nil {
			t.Fatal("fold-in segment carries a quantizer")
		}
	}
}

func TestANNMinDocsGate(t *testing.T) {
	a := testMatrix(t, 4, 10, 50, 406)
	cfg := annConfig(1)
	cfg.TierMinDocs = 1000
	x, err := Build(a, defaultIDs(50), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if got := annSegments(x); got != 0 {
		t.Fatalf("%d quantized segments under a 1000-doc threshold, want 0", got)
	}
	// Probe search still works — it just scans exhaustively.
	terms, weights := sparseCol(a, 1)
	got, st := x.SearchSparseOpts(terms, weights, 10, segment.ProbeOptions{NProbe: 2})
	if st.Probed != 0 || st.ExactDocs != 50 {
		t.Fatalf("stats %+v, want pure exhaustive scan", st)
	}
	sameMatches(t, got, searchSparse(x, terms, weights, 10), "gated")
}

func TestANNSaveOpenRoundTrip(t *testing.T) {
	a := testMatrix(t, 4, 10, 70, 407)
	x, err := Build(a, defaultIDs(70), annConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	dir := filepath.Join(t.TempDir(), "idx")
	if err := x.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	// Sidecar files exist on disk.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sidecars := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "ann-") && strings.HasSuffix(e.Name(), ".ivf") {
			sidecars++
		}
	}
	if sidecars != 2 {
		t.Fatalf("%d ann sidecars on disk, want 2", sidecars)
	}

	// Reopening with NO ANN config still loads the sidecars and serves
	// probed searches identical to the saved index.
	y, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer y.Close()
	if got := annSegments(y); got != 2 {
		t.Fatalf("%d quantized segments after open, want 2", got)
	}
	for j := 0; j < 8; j++ {
		terms, weights := sparseCol(a, j)
		want, _ := x.SearchSparseOpts(terms, weights, 10, segment.ProbeOptions{NProbe: 2})
		got, _ := y.SearchSparseOpts(terms, weights, 10, segment.ProbeOptions{NProbe: 2})
		sameMatches(t, got, want, "reloaded probe")
	}

	// A re-save retires the old generation's sidecars along with its
	// segment files.
	if err := y.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	entries, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "ann-0-") {
			t.Fatalf("stale generation-0 sidecar %s survived re-save", e.Name())
		}
	}
}

func TestANNOpenTrainsWhenSidecarMissing(t *testing.T) {
	a := testMatrix(t, 4, 10, 40, 408)
	// Save WITHOUT the ANN tier...
	x, err := Build(a, defaultIDs(40), Config{Shards: 2, Rank: 4, Seed: 77, SealEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	dir := filepath.Join(t.TempDir(), "idx")
	if err := x.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	// ...and open WITH it: segments train in place.
	y, err := Open(dir, Config{ANNList: 6, TierMinDocs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer y.Close()
	if got := annSegments(y); got != 2 {
		t.Fatalf("%d quantized segments after ANN-enabled open, want 2", got)
	}
	terms, weights := sparseCol(a, 3)
	got, _ := y.SearchSparseOpts(terms, weights, 10, segment.ProbeOptions{NProbe: 99})
	sameMatches(t, got, searchSparse(y, terms, weights, 10), "trained-on-open full probe")
}

func TestANNExportCarriesSidecars(t *testing.T) {
	a := testMatrix(t, 4, 10, 60, 409)
	x, err := Build(a, defaultIDs(60), annConfig(2))
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
	if got := annSegments(y); got != 1 {
		t.Fatalf("%d quantized segments in exported shard, want 1", got)
	}
	terms, weights := sparseCol(a, 0)
	got, _ := y.SearchSparseOpts(terms, weights, 10, segment.ProbeOptions{NProbe: 99})
	sameMatches(t, got, searchSparse(y, terms, weights, 10), "exported full probe")
}

func TestANNStatsCounters(t *testing.T) {
	a := testMatrix(t, 4, 10, 50, 410)
	x, err := Build(a, defaultIDs(50), annConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	terms, weights := sparseCol(a, 4)
	_, st := x.SearchSparseOpts(terms, weights, 10, segment.ProbeOptions{NProbe: 2})
	if st.Cells != 2 || st.Docs <= 0 || st.Docs >= 50 {
		t.Fatalf("probe stats %+v, want 2 cells and a partial scan", st)
	}
	var c segment.Counters
	c.Add(st)
	_, ps := x.SearchSparseOpts(terms, weights, 10, segment.ProbeOptions{}) // escape hatch: no counter movement
	c.Add(ps)
	if ps.Probed != 0 || ps.ExactDocs != x.NumDocs() {
		t.Fatalf("escape hatch probed: %+v", ps)
	}
	if tot := c.Totals(); tot != (segment.Totals{AnnSearches: 1, AnnCells: int64(st.Cells), AnnDocs: int64(st.Docs)}) {
		t.Fatalf("accumulated %+v after %+v and %+v", tot, st, ps)
	}
}
