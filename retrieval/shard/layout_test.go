package shard

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateLayout = flag.Bool("update", false, "rewrite the checkpoint layout golden files")

// layoutIndex is a fixed two-shard index holding every kind of segment a
// checkpoint records: per shard the built base and a compacted merge
// (both with an IVF quantizer and an int8 shadow), a sealed fold-in
// segment awaiting compaction, and a live one.
func layoutIndex(t *testing.T) *Index {
	t.Helper()
	a := testMatrix(t, 4, 10, 40, 601)
	x, err := Build(a, defaultIDs(40), Config{
		Shards: 2, Rank: 4, Seed: 77, SealEvery: 8,
		ANNList: 6, Quantize: true, TierMinDocs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { x.Close() })
	add := func(n int) {
		for i := 0; i < n; i++ {
			terms, weights := sparseCol(a, i%40)
			if _, err := x.Add(Doc{Terms: terms, Weights: weights}); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(16) // one sealed segment of 8 per shard …
	if _, err := x.Compact(); err != nil {
		t.Fatal(err)
	}
	add(22) // … then another sealed 8 and a live 3 per shard.
	return x
}

// The checkpoint writer's output is pinned byte for byte where it is
// machine-independent: the directory listing and the manifest (which
// holds no floats) of a second-generation SaveDir and of a
// second-generation SaveShardDir must equal the committed files. The
// listings were generated before SaveShardDir was folded into SaveDir's
// writer; the manifests were re-pinned once, when version 2 dropped the
// globals lists.
func TestCheckpointLayoutGolden(t *testing.T) {
	x := layoutIndex(t)
	for _, tc := range []struct {
		name string
		save func(dir string) error
	}{
		{"savedir", x.SaveDir},
		{"export", func(dir string) error { return x.SaveShardDir(1, dir) }},
	} {
		dir := t.TempDir()
		for gen := 0; gen < 2; gen++ { // the re-save retires generation 0
			if err := tc.save(dir); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		entries, err := os.ReadDir(dir) // sorted by name
		if err != nil {
			t.Fatal(err)
		}
		var listing strings.Builder
		for _, e := range entries {
			listing.WriteString(e.Name() + "\n")
		}
		manifest, err := os.ReadFile(filepath.Join(dir, ManifestName))
		if err != nil {
			t.Fatal(err)
		}
		for file, got := range map[string][]byte{
			"layout_" + tc.name + ".txt":           []byte(listing.String()),
			"layout_" + tc.name + "_manifest.json": manifest,
		} {
			golden := filepath.Join("testdata", file)
			if *updateLayout {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from the golden layout:\n got: %s\nwant: %s", file, got, want)
			}
		}
	}
}
