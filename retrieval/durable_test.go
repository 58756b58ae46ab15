package retrieval

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
)

// A WAL'd index that "crashes" (is abandoned without a checkpoint) must
// come back — checkpoint + replay — holding every acked document, and
// serve the same results as an index that never crashed.
func TestWALReplayRestoresAckedAdds(t *testing.T) {
	base := largerCorpus(20)
	opts := []Option{WithRank(3), WithShards(2), WithAutoCompact(false), WithSeed(11)}
	dir := t.TempDir()
	data, waldir := filepath.Join(dir, "data"), filepath.Join(dir, "wal")
	ctx := context.Background()

	ix, err := Build(base, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.SaveDir(data); err != nil {
		t.Fatal(err)
	}
	if replayed, err := ix.AttachWAL(waldir); err != nil || replayed != 0 {
		t.Fatalf("AttachWAL = (%d, %v), want (0, nil)", replayed, err)
	}
	if _, err := ix.TailWAL(0); errors.Is(err, ErrNoWAL) {
		t.Fatal("TailWAL = ErrNoWAL after AttachWAL")
	}

	// Acked adds in several batches; only the first lands in a
	// checkpoint, the rest live solely in the WAL.
	added := []Document{
		{ID: "live-0", Text: "a shiny new car with a powerful engine"},
		{ID: "live-1", Text: "stars and galaxies in deep space"},
		{ID: "live-2", Text: "cooking recipes with fresh tomatoes"},
		{ID: "live-3", Text: "the car engine roared across the galaxy"},
	}
	if _, err := ix.Add(ctx, added[:1]); err != nil {
		t.Fatal(err)
	}
	if err := ix.Checkpoint(data); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Add(ctx, added[1:3]); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Add(ctx, added[3:]); err != nil {
		t.Fatal(err)
	}
	wantDocs := ix.NumDocs()
	wantResults, err := ix.Search(ctx, "car engine", 10)
	if err != nil {
		t.Fatal(err)
	}
	ix.Close() // abandon without a final checkpoint: the WAL must carry live-1..3

	re, err := OpenDir(data, WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumDocs() != 21 {
		t.Fatalf("checkpoint holds %d docs, want 21 (base 20 + live-0)", re.NumDocs())
	}
	replayed, err := re.AttachWAL(waldir)
	if err != nil {
		t.Fatalf("AttachWAL replay: %v", err)
	}
	if replayed != 3 {
		t.Fatalf("replayed %d docs, want 3", replayed)
	}
	if re.NumDocs() != wantDocs {
		t.Fatalf("NumDocs after replay = %d, want %d", re.NumDocs(), wantDocs)
	}
	got, err := re.Search(ctx, "car engine", 10)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, wantResults, "after crash replay")

	// Replay is idempotent across another restart with no new writes.
	re.Close()
	re2, err := OpenDir(data, WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if replayed, err := re2.AttachWAL(waldir); err != nil || replayed != 3 {
		t.Fatalf("second replay = (%d, %v), want (3, nil)", replayed, err)
	}
	if re2.NumDocs() != wantDocs {
		t.Fatalf("NumDocs after second replay = %d, want %d", re2.NumDocs(), wantDocs)
	}
}

// Checkpoint must rotate the WAL: a restart after a checkpoint replays
// nothing.
func TestCheckpointRotatesWAL(t *testing.T) {
	dir := t.TempDir()
	data, waldir := filepath.Join(dir, "data"), filepath.Join(dir, "wal")
	ix, err := Build(largerCorpus(12), WithRank(3), WithShards(2), WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.SaveDir(data); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.AttachWAL(waldir); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := ix.Add(ctx, []Document{{ID: fmt.Sprintf("w-%d", i), Text: "car engine maintenance"}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Checkpoint(data); err != nil {
		t.Fatal(err)
	}
	want := ix.NumDocs()
	ix.Close()

	re, err := OpenDir(data, WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumDocs() != want {
		t.Fatalf("checkpoint holds %d docs, want %d", re.NumDocs(), want)
	}
	if replayed, err := re.AttachWAL(waldir); err != nil || replayed != 0 {
		t.Fatalf("replay after checkpoint = (%d, %v), want (0, nil)", replayed, err)
	}
}

func TestAttachWALRejectsUnsharded(t *testing.T) {
	ix, err := Build(DemoCorpus(), WithRank(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.AttachWAL(t.TempDir()); err == nil {
		t.Fatal("AttachWAL on an unsharded index succeeded")
	}
}

// Per-shard exports through the retrieval layer must open as standalone
// text-query-capable indexes whose merged corpus is the original.
func TestSaveShardDirsOpensStandalone(t *testing.T) {
	docs := largerCorpus(23)
	ix, err := Build(docs, WithRank(3), WithShards(3), WithAutoCompact(false), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	dir := t.TempDir()
	if err := ix.SaveShardDirs(dir); err != nil {
		t.Fatal(err)
	}
	total := 0
	ctx := context.Background()
	for s := 0; s < 3; s++ {
		node, err := OpenDir(shardDirName(dir, s), WithAutoCompact(false))
		if err != nil {
			t.Fatalf("open shard %d export: %v", s, err)
		}
		total += node.NumDocs()
		// Node answers text queries with its shard's documents, and its
		// locals map back to the owning globals.
		if _, err := node.Search(ctx, "car", 3); err != nil {
			t.Fatalf("shard %d query: %v", s, err)
		}
		for l := 0; l < node.NumDocs(); l++ {
			if got, want := node.DocID(l), docs[l*3+s].ID; got != want {
				t.Fatalf("shard %d local %d: id %q, want %q", s, l, got, want)
			}
		}
		node.Close()
	}
	if total != len(docs) {
		t.Fatalf("exports hold %d docs, want %d", total, len(docs))
	}
}

func TestStatsCarryEpochAndGeneration(t *testing.T) {
	ix, err := Build(largerCorpus(12), WithRank(3), WithShards(2), WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.Epoch() != 0 || ix.Generation() != 0 {
		t.Fatalf("fresh build: epoch %d generation %d, want 0 0", ix.Epoch(), ix.Generation())
	}
	ctx := context.Background()
	if _, err := ix.Add(ctx, []Document{{ID: "x", Text: "car engine"}}); err != nil {
		t.Fatal(err)
	}
	if ix.Epoch() == 0 {
		t.Fatal("epoch did not advance after Add")
	}
	dir := t.TempDir()
	if err := ix.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := ix.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.Epoch != ix.Epoch() || st.Generation != 1 {
		t.Fatalf("Stats epoch %d generation %d, want %d 1", st.Epoch, st.Generation, ix.Epoch())
	}
	if st.Live == nil {
		t.Fatal("Stats().Live = nil on a live index")
	}
}

// TailWAL must serve exactly the suffix a replica is missing, and 410
// (ErrWALGone) positions a checkpoint rotated away.
func TestTailWAL(t *testing.T) {
	dir := t.TempDir()
	data, waldir := filepath.Join(dir, "data"), filepath.Join(dir, "wal")
	ix, err := Build(largerCorpus(10), WithRank(3), WithShards(2), WithAutoCompact(false))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := ix.SaveDir(data); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.AttachWAL(waldir); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := ix.Add(ctx, []Document{{ID: fmt.Sprintf("t-%d", i), Text: "car engine"}}); err != nil {
			t.Fatal(err)
		}
	}
	// A replica at 12 is missing t-2, t-3.
	docs, err := ix.TailWAL(12)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 || docs[0].ID != "t-2" || docs[1].ID != "t-3" {
		t.Fatalf("TailWAL(12) = %+v, want [t-2 t-3]", docs)
	}
	// Caught up: empty.
	if docs, err := ix.TailWAL(14); err != nil || len(docs) != 0 {
		t.Fatalf("TailWAL(14) = (%d docs, %v), want (0, nil)", len(docs), err)
	}
	// Checkpoint rotates; an old position is gone, the new one is fine.
	if err := ix.Checkpoint(data); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.TailWAL(12); !errors.Is(err, ErrWALGone) {
		t.Fatalf("TailWAL(12) after rotation: err = %v, want ErrWALGone", err)
	}
	if docs, err := ix.TailWAL(14); err != nil || len(docs) != 0 {
		t.Fatalf("TailWAL(14) after rotation = (%d docs, %v), want (0, nil)", len(docs), err)
	}
}
