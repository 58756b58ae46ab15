package shard

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/blob"
	"repro/internal/lsi"
	"repro/internal/race"
	"repro/internal/topk"
)

// Exporting every shard of a central build and re-merging the exported
// nodes' results must reproduce the central index bitwise — the
// property the cluster router's fan-out merge rests on.
func TestSaveShardDirMergeMatchesCentralBitwise(t *testing.T) {
	const shards, m = 3, 47 // m not divisible by shards: uneven last round
	a := testMatrix(t, 3, 12, m, 311)
	ids := make([]string, m)
	for i := range ids {
		ids[i] = fmt.Sprintf("doc-%03d", i)
	}
	central, err := Build(a, ids, Config{Shards: shards, Rank: 4, Engine: lsi.EngineRandomized, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer central.Close()

	dir := t.TempDir()
	nodes := make([]*Index, shards)
	for s := 0; s < shards; s++ {
		sub := filepath.Join(dir, fmt.Sprintf("node%d", s))
		if err := central.SaveShardDir(s, sub); err != nil {
			t.Fatalf("SaveShardDir(%d): %v", s, err)
		}
		nodes[s], err = Open(sub, Config{})
		if err != nil {
			t.Fatalf("Open export %d: %v", s, err)
		}
		defer nodes[s].Close()
	}

	// Node-local document counts partition the corpus, and external IDs
	// survive the local remap.
	totalDocs := 0
	for s, node := range nodes {
		totalDocs += node.NumDocs()
		for l := 0; l < node.NumDocs(); l++ {
			g := l*shards + s
			if got, want := node.ExternalID(l), central.ExternalID(g); got != want {
				t.Fatalf("node %d local %d: id %q, want %q (global %d)", s, l, got, want, g)
			}
		}
	}
	if totalDocs != m {
		t.Fatalf("exports hold %d docs total, want %d", totalDocs, m)
	}

	// Merged per-node results == central results, bitwise, for full
	// rankings: each node returns everything, locals remap to globals,
	// and the strict (score desc, doc asc) order does the rest.
	for j := 0; j < 10; j++ {
		terms, weights := sparseCol(a, j)
		want := searchSparse(central, terms, weights, 0)
		var merged []topk.Match
		for s, node := range nodes {
			for _, match := range searchSparse(node, terms, weights, 0) {
				merged = append(merged, topk.Match{Doc: match.Doc*shards + s, Score: match.Score})
			}
		}
		topk.SortMatches(merged)
		sameMatches(t, merged, want, fmt.Sprintf("query %d", j))
	}
}

func TestSaveShardDirRejectsBadShard(t *testing.T) {
	a := testMatrix(t, 2, 10, 12, 313)
	x, err := Build(a, defaultIDs(12), Config{Shards: 2, Rank: 3, Engine: lsi.EngineRandomized, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if err := x.SaveShardDir(-1, t.TempDir()); err == nil {
		t.Fatal("SaveShardDir(-1) succeeded")
	}
	if err := x.SaveShardDir(2, t.TempDir()); err == nil {
		t.Fatal("SaveShardDir(2) succeeded")
	}
}

// Generation must surface through Stats and Generation() after save and
// reopen.
func TestGenerationSurfacing(t *testing.T) {
	a := testMatrix(t, 2, 10, 12, 317)
	x, err := Build(a, defaultIDs(12), Config{Shards: 2, Rank: 3, Engine: lsi.EngineRandomized, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	dir := t.TempDir()
	if err := x.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if got := x.Generation(); got != 0 {
		t.Fatalf("first save: Generation() = %d, want 0", got)
	}
	if err := x.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if got := x.Generation(); got != 1 {
		t.Fatalf("second save: Generation() = %d, want 1", got)
	}
	if got := x.Stats().Generation; got != 1 {
		t.Fatalf("Stats().Generation = %d, want 1", got)
	}
	y, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer y.Close()
	if got := y.Generation(); got != 1 {
		t.Fatalf("reopened Generation() = %d, want 1", got)
	}
}

// A checkpoint encodes each segment into a buffer sized once from
// EncodedSize: a buffer that grew as it was written would have allocated
// at least twice the file.
func TestEncodeSegmentAllocatesItsSizeOnce(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation sizes are not exact under the race detector")
	}
	const docs, terms, k = 4000, 200, 32
	ix, err := lsi.NewIndexFromParts(lsi.IndexParts{
		K: k, NumTerms: terms, Sigma: make([]float64, k),
		UkRows: terms, UkData: make([]float64, terms*k),
		DocRows: docs, DocData: make([]float32, docs*k),
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	data, err := encodeSegment(ix)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != ix.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(data), ix.EncodedSize())
	}
	// The slack is the writer's one window.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(data)+2*blob.Window); got > limit {
		t.Fatalf("encoding a %d-byte segment allocated %d bytes, limit %d", len(data), got, limit)
	}
}
