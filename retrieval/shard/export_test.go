package shard

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/blob"
	"repro/internal/lsi"
	"repro/internal/race"
	"repro/internal/segment"
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
	central, err := Build(a, ids, nil, Config{Shards: shards, Rank: 4, Engine: lsi.EngineRandomized, Seed: 9})
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
	x, err := Build(a, defaultIDs(12), nil, Config{Shards: 2, Rank: 3, Engine: lsi.EngineRandomized, Seed: 1})
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
	x, err := Build(a, defaultIDs(12), nil, Config{Shards: 2, Rank: 3, Engine: lsi.EngineRandomized, Seed: 1})
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
	var seg *segment.Segment
	if err == nil {
		seg, err = segment.FromRule(ix, 0, 1, nil, true)
	}
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := Part{seg: seg}.encoded()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	data := p.Index
	if len(data) != ix.EncodedSize(nil) {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(data), ix.EncodedSize(nil))
	}
	// The slack is the writer's one window.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(data)+2*blob.Window); got > limit {
		t.Fatalf("encoding a %d-byte segment allocated %d bytes, limit %d", len(data), got, limit)
	}
}

// An exported node that lost its IVF sidecars retrains the very cells its
// central shard trained: the quantizer's seed follows the segment's
// shard-local first document, which the node numbers as the central
// shard does, and the node's seed (the manifest's Seed+s) is the shard's.
// Each shard holds its build segment and one compacted after live adds.
func TestExportedNodeRetrainsCentralCells(t *testing.T) {
	a := testMatrix(t, 4, 10, 60, 409)
	cfg := annConfig(2)
	x, err := Build(a, defaultIDs(60), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for i := 0; i < 40; i++ {
		terms, weights := sparseCol(a, (7*i)%60)
		if _, err := x.Add(Doc{Terms: terms, Weights: weights}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := x.Compact(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < cfg.Shards; s++ {
		kept, bare := filepath.Join(t.TempDir(), "kept"), filepath.Join(t.TempDir(), "bare")
		for _, dir := range []string{kept, bare} {
			if err := x.SaveShardDir(s, dir); err != nil {
				t.Fatal(err)
			}
		}
		if ann, _ := countParts(t, bare); ann == 0 {
			t.Fatalf("shard %d export holds no IVF sidecar", s)
		}
		editCheckpoint(t, bare, func(parts [][]Part) {
			for i := range parts[0] {
				parts[0][i].ANN = nil
			}
		})
		want, err := Open(kept, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer want.Close()
		got, err := Open(bare, Config{ANNList: cfg.ANNList, TierMinDocs: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer got.Close()
		ws, gs := want.Segments(nil), got.Segments(nil)
		if len(ws) != len(gs) || annSegments(want) < 2 {
			t.Fatalf("shard %d: %d and %d segments, %d with cells; want equal counts and at least 2 with cells", s, len(ws), len(gs), annSegments(want))
		}
		for i := range ws {
			if (ws[i].Ann == nil) != (gs[i].Ann == nil) || ws[i].Ann != nil && !bytes.Equal(ws[i].Ann.Encode(), gs[i].Ann.Encode()) {
				t.Errorf("shard %d segment %d: the node retrains other cells than the central shard", s, i)
			}
		}
	}
}
