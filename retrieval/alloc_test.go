package retrieval

import (
	"context"
	"io"
	"math/rand"
	"testing"

	"repro/internal/race"
)

// Allocation regression for the text hot path. A text query necessarily
// allocates a little O(len(query)) state — token strings from the
// pipeline, the term-count map, the sparse term/weight slices, and the
// returned results — but the backend scan itself must contribute
// nothing: allocations may not grow with the corpus. That is the
// observable difference between the pooled sparse hot path and the old
// one, which allocated a vocabulary-length query vector plus a
// corpus-length match slice (and, for VSM, a score map) per query.

// synthTexts generates n documents over a shared vocabulary so the big
// and small corpora exercise identical query prep.
func synthTexts(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{
		"engine", "carburetor", "gearbox", "piston", "clutch", "galaxy",
		"nebula", "telescope", "quasar", "orbit", "garlic", "basil",
		"risotto", "saffron", "gnocchi", "violin", "sonata", "tempo",
	}
	texts := make([]string, n)
	for i := range texts {
		var s string
		for j := 0; j < 12; j++ {
			s += vocab[rng.Intn(len(vocab))] + " "
		}
		texts[i] = s
	}
	return texts
}

func TestTextSearchAllocsIndependentOfCorpusSize(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	ctx := context.Background()
	const query = "galaxy telescope engine"
	for _, tc := range []struct {
		name  string
		build builder
		opts  []Option
	}{
		{"lsi", buildLSI, nil},
		{"vsm", buildVSM, nil},
		{"lsi-2-shards", buildLSI, []Option{WithShards(2), WithAutoCompact(false)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			measure := func(numDocs int) float64 {
				texts := synthTexts(numDocs, 7331)
				docs := make([]Document, len(texts))
				for i, text := range texts {
					docs[i] = Document{Text: text}
				}
				ix, err := tc.build(docs, append([]Option{WithRank(3), WithEngine(EngineDense), WithParallelism(1)}, tc.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				if c, ok := ix.(io.Closer); ok {
					defer c.Close()
				}
				return testing.AllocsPerRun(200, func() {
					if _, err := ix.Search(ctx, query, 10); err != nil {
						t.Fatal(err)
					}
				})
			}
			small := measure(20)
			large := measure(600)
			if large > small {
				t.Fatalf("allocs grew with the corpus: %v/op at 600 docs vs %v/op at 20 (backend scan must be allocation-free)", large, small)
			}
			// Absolute ceiling so query-prep allocations cannot creep
			// either: tokenization + counts map + sparse slices + results.
			if small > 24 {
				t.Fatalf("%v allocs/op for a 3-token query, want <= 24", small)
			}
		})
	}
}

// TestTierStatsScrapeIsAllocationFree pins what one /metrics scrape pays
// for the index: one Stats snapshot, which allocates its nil-able blocks
// and nothing that grows with the index — no vocabulary copy, no ID-table
// pass, no basis map, no segment snapshot slice. Unsharded with every
// block (cache, ANN, quant): at most 4. Sharded, with the live block and
// its per-shard topology: at most 6, what Stats cost before it carried
// them.
func TestTierStatsScrapeIsAllocationFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	for _, shards := range []int{0, 3} {
		opts := []Option{WithRank(6), WithEngine(EngineDense), WithANN(8, 2), WithQuantized(2), WithQueryCache(1 << 20)}
		limit := 4.0
		if shards > 0 {
			opts = append(opts, WithShards(shards), WithAutoCompact(false))
			limit = 6
		}
		ix, err := Build(clusteredDocs(780, 5), opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		if _, err := ix.Search(context.Background(), "car engine", 10); err != nil {
			t.Fatal(err)
		}
		wantSegs := max(shards, 1)
		allocs := testing.AllocsPerRun(100, func() {
			st := ix.Stats()
			as, qs := st.ANN, st.Quant
			if as == nil || qs == nil || st.Cache == nil || (st.Live != nil) != (shards > 0) ||
				as.Segments != wantSegs || qs.Segments != wantSegs ||
				as.Docs != 780 || qs.Docs != 780 || as.Searches != 1 || qs.Searches != 1 {
				t.Fatalf("shards=%d: ann %+v, quant %+v, cache %v, live %v", shards, as, qs, st.Cache, st.Live)
			}
		})
		if allocs > limit {
			t.Errorf("shards=%d: Stats allocates %v/op, want <= %v", shards, allocs, limit)
		}
	}
}

// The sparse text path must agree bitwise — same ranking, same scores —
// with the dense query it stands for: LSI's vector query, and for the
// vector-space baseline vsm.Index.Search itself.
func TestSearchVectorMatchesSparseTextPath(t *testing.T) {
	ctx := context.Background()
	queries := []string{"car engine repair", "galaxy stars telescope", "pasta garlic pasta"}
	densify := func(t *testing.T, text *textLayer, n int, query string) []float64 {
		terms, weights, known := text.querySparse(query)
		if known == 0 {
			t.Fatalf("query %q missed the vocabulary", query)
		}
		dense := make([]float64, n)
		for i, term := range terms {
			dense[term] = weights[i]
		}
		return dense
	}
	check := func(t *testing.T, query string, fromText, fromVec []Result) {
		if len(fromText) != len(fromVec) {
			t.Fatalf("%q: %d vs %d results", query, len(fromText), len(fromVec))
		}
		for i := range fromText {
			if fromText[i] != fromVec[i] {
				t.Fatalf("%q result %d: text %+v != vector %+v", query, i, fromText[i], fromVec[i])
			}
		}
	}
	t.Run("lsi", func(t *testing.T) {
		ix := demoLSI(t)
		for _, query := range queries {
			fromText, err := ix.Search(ctx, query, 5)
			if err != nil {
				t.Fatal(err)
			}
			fromVec, err := only(ix.Query(ctx, Query{Vector: densify(t, &ix.textLayer, ix.NumTerms(), query), TopN: 5}))
			if err != nil {
				t.Fatal(err)
			}
			check(t, query, fromText, fromVec)
		}
	})
	t.Run("vsm", func(t *testing.T) {
		v, err := BuildVSM(DemoCorpus())
		if err != nil {
			t.Fatal(err)
		}
		for _, query := range queries {
			fromText, err := v.Search(ctx, query, 5)
			if err != nil {
				t.Fatal(err)
			}
			var fromVec []Result
			for _, m := range v.ix.Search(densify(t, &v.textLayer, v.ix.NumTerms(), query), 5) {
				fromVec = append(fromVec, Result{Doc: m.Doc, ID: v.docID(m.Doc), Score: m.Score})
			}
			check(t, query, fromText, fromVec)
		}
	})
}
