package retrieval

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestUnshardedIndexContract pins what an index built without WithShards
// promises, for a fresh Build and for an Open of its Save alike: it takes
// no writes, has no directory or WAL form, reports a still, ready,
// one-partition topology, keeps its /v1/stats shape, carries the tiers it
// was asked for at any size, and closes idempotently.
func TestUnshardedIndexContract(t *testing.T) {
	docs := topicDocs(90) // fewer than a sharded segment's 256-document tier floor
	tierOpts := []Option{WithANN(128, 2), WithQuantized(4)}
	built, err := Build(docs, append([]Option{WithRank(3), WithEngine(EngineDense)}, tierOpts...)...)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.lsi")
	var saved bytes.Buffer
	if err := built.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, saved.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	opened, err := Open(path, tierOpts...)
	if err != nil {
		t.Fatal(err)
	}

	topology := []string{"sharded", "shards", "segments", "liveSegments", "sealedPending",
		"compactedSegments", "foldedDocs", "compactions", "compactionFailures", "lastCompactionError"}
	for _, tc := range []struct {
		name string
		ix   *Index
	}{{"build", built}, {"open", opened}} {
		t.Run(tc.name, func(t *testing.T) {
			ix, ctx, dir := tc.ix, context.Background(), t.TempDir()
			if ix.Sharded() {
				t.Fatal("Sharded() = true")
			}
			if _, err := ix.Add(ctx, []Document{{Text: "car engine"}}); !errors.Is(err, ErrImmutableIndex) {
				t.Errorf("Add = %v, want ErrImmutableIndex", err)
			}
			notSharded := map[string]error{
				"AttachWAL":     func() error { _, err := ix.AttachWAL(filepath.Join(dir, "wal")); return err }(),
				"SaveDir":       ix.SaveDir(filepath.Join(dir, "saved")),
				"SaveShardDir":  ix.SaveShardDir(0, filepath.Join(dir, "shard")),
				"SaveShardDirs": ix.SaveShardDirs(filepath.Join(dir, "shards")),
				"Checkpoint":    ix.Checkpoint(filepath.Join(dir, "checkpoint")),
			}
			for name, err := range notSharded {
				if !errors.Is(err, ErrNotSharded) {
					t.Errorf("%s = %v, want ErrNotSharded", name, err)
				}
			}
			if st := ix.Stats(); st.Shards != 0 || st.PerShard != nil {
				t.Errorf("Stats() carries a live block: %+v", st.Stats)
			}
			if e, g := ix.Epoch(), ix.Generation(); e != 0 || g != 0 {
				t.Errorf("Epoch, Generation = %d, %d, want 0, 0", e, g)
			}
			if n, err := ix.Compact(); n != 0 || err != nil {
				t.Errorf("Compact = %d, %v, want 0, nil", n, err)
			}
			if n := ix.NumShards(); n != 1 {
				t.Errorf("NumShards = %d, want 1", n)
			}
			if !ix.Stats().Ready {
				t.Error("Stats().Ready = false")
			}

			st := ix.Stats()
			if st.Sharded || st.Epoch != 0 || st.Generation != 0 || !st.Ready || st.NumDocs != len(docs) {
				t.Errorf("Stats = sharded %v, epoch %d, generation %d, ready %v, %d docs",
					st.Sharded, st.Epoch, st.Generation, st.Ready, st.NumDocs)
			}
			data, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(data, &keys); err != nil {
				t.Fatal(err)
			}
			for _, k := range topology {
				if _, ok := keys[k]; ok {
					t.Errorf("Stats JSON carries topology key %q: %s", k, data)
				}
			}
			for _, k := range []string{"epoch", "generation", "ready"} {
				if _, ok := keys[k]; !ok {
					t.Errorf("Stats JSON lacks %q: %s", k, data)
				}
			}

			// The tiers train at any size, and the ANN block reports the
			// clamped cell count, not the configured 128.
			as, ok := annStatsOf(ix)
			if !ok || as.Segments != 1 || as.Docs != len(docs) || as.NList < 1 || as.NList > len(docs) {
				t.Errorf("ANNStats = %+v, %v, want one quantizer over %d docs with a clamped nlist", as, ok, len(docs))
			}
			if qs, ok := quantStatsOf(ix); !ok || qs.Segments != 1 || qs.Docs != len(docs) {
				t.Errorf("QuantStats = %+v, %v, want one shadow over %d docs", qs, ok, len(docs))
			}

			if err := ix.Close(); err != nil {
				t.Fatalf("Close = %v", err)
			}
			if err := ix.Close(); err != nil {
				t.Fatalf("second Close = %v", err)
			}
			var again bytes.Buffer
			if err := ix.Save(&again); err != nil {
				t.Fatalf("Save after Close = %v", err)
			}
			if !bytes.Equal(again.Bytes(), saved.Bytes()) {
				t.Error("Save after Close wrote different bytes")
			}
			if res, err := ix.Search(ctx, "car engine", 3); err != nil || len(res) != 3 {
				t.Errorf("Search after Close = %d results, %v", len(res), err)
			}
		})
	}
}
