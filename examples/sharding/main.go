// Example sharding walks the sharded live index through its whole
// lifecycle: build across shards, append documents while serving, watch
// segments seal, compact them, persist the index to a directory, and
// reopen it still live.
//
//	go run ./examples/sharding
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/retrieval"
)

func show(label string, ix *retrieval.Index) {
	st := ix.Stats()
	fmt.Printf("%-28s %3d docs | %d shards, %d segments (%d live, %d sealed, %d compacted) | ready=%v\n",
		label, st.NumDocs, st.Shards, st.Segments, st.LiveSegments, st.SealedPending, st.CompactedSegments, st.Ready)
}

func main() {
	ctx := context.Background()

	// 1. Build a 3-shard live index. Auto-compaction is off so the
	// lifecycle states are visible step by step; production leaves it on.
	ix, err := retrieval.Build(retrieval.DemoCorpus(),
		retrieval.WithRank(3),
		retrieval.WithShards(3),
		retrieval.WithSealEvery(4),
		retrieval.WithAutoCompact(false),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer ix.Close()
	show("built:", ix)

	// 2. Live appends: each document folds into its shard's live segment
	// and is searchable immediately — no rebuild.
	newDocs := []retrieval.Document{
		{ID: "ev-1", Text: "electric cars with battery packs replace the combustion engine"},
		{ID: "ev-2", Text: "charging an electric automobile battery at home"},
		{ID: "probe-1", Text: "the space probe photographed the rings of saturn"},
		{ID: "bread-1", Text: "kneading dough for sourdough bread baking"},
		{ID: "ev-3", Text: "battery range of the new electric car"},
		{ID: "probe-2", Text: "a telescope on the probe measured the galaxy"},
	}
	for _, d := range newDocs {
		if _, err := ix.Add(ctx, []retrieval.Document{d}); err != nil {
			log.Fatal(err)
		}
	}
	show("after 6 live appends:", ix)

	res, err := ix.Search(ctx, "electric battery car", 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  search \"electric battery car\":")
	for _, r := range res {
		fmt.Printf("    %-8s score=%.4f\n", r.ID, r.Score)
	}

	// 3. Keep appending past the seal threshold: live segments freeze
	// into sealed ones, waiting for the compactor.
	for i := 0; i < 8; i++ {
		d := retrieval.Document{Text: "another document about car engines and repair manuals"}
		if _, err := ix.Add(ctx, []retrieval.Document{d}); err != nil {
			log.Fatal(err)
		}
	}
	show("after 8 more (sealed):", ix)

	// 4. Compact: sealed segments are rebuilt from their raw documents
	// with a fresh decomposition (the one the build ran) and swapped in
	// atomically. (With WithAutoCompact(true) — the default — a
	// background goroutine does this on its own.)
	if _, err := ix.Compact(); err != nil {
		log.Fatal(err)
	}
	show("after compaction:", ix)

	// 5. Persist the whole sharded index to a directory and reopen it:
	// same results, still accepting appends.
	dir := filepath.Join(os.TempDir(), "lsi-sharded-example")
	defer os.RemoveAll(dir)
	if err := ix.SaveDir(dir); err != nil {
		log.Fatal(err)
	}
	re, err := retrieval.Open(dir, retrieval.WithAutoCompact(false))
	if err != nil {
		log.Fatal(err)
	}
	defer re.Close()
	show("reopened from "+dir+":", re)

	if _, err := re.Add(ctx, []retrieval.Document{{ID: "post-reload", Text: "fresh pasta recipe with tomato"}}); err != nil {
		log.Fatal(err)
	}
	res, err = re.Search(ctx, "pasta recipe", 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  search \"pasta recipe\" after reload+append:")
	for _, r := range res {
		fmt.Printf("    %-12s score=%.4f\n", r.ID, r.Score)
	}
}
