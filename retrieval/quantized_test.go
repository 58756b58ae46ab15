package retrieval

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWithQuantizedRequiresLSI(t *testing.T) {
	_, err := BuildVSM(DemoCorpus(), WithQuantized(4))
	if err == nil || !strings.Contains(err.Error(), "WithQuantized") {
		t.Fatalf("BuildVSM(WithQuantized) = %v, want an error naming WithQuantized", err)
	}
}

func TestQuantizedSaturatedBetaBitwiseEqualsExhaustive(t *testing.T) {
	docs := topicDocs(200)
	plain, err := Build(docs, WithRank(6), WithEngine(EngineDense))
	if err != nil {
		t.Fatal(err)
	}
	// A beta large enough that topN·beta covers the corpus degenerates to
	// the exact pass: the default search must reproduce the exhaustive
	// ranking bit for bit.
	qx, err := Build(docs, WithRank(6), WithEngine(EngineDense), WithQuantized(1000))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range []string{"car engine", "telescope nebula", "yeast dough", "mechanic comet"} {
		want, err := plain.Search(ctx, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := qx.Search(ctx, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, got, want, "saturated beta "+q)
	}
	st, ok := quantStatsOf(qx)
	if !ok {
		t.Fatal("Stats().Quant = nil on a WithQuantized index")
	}
	if st.Segments != 1 || st.Docs != 200 || st.Bytes <= 0 {
		t.Fatalf("QuantStats = %+v, want 1 shadow over 200 docs", st)
	}
	if st.Searches == 0 || st.DocsReranked == 0 {
		t.Fatalf("scan counters did not advance: %+v", st)
	}
	if full := qx.Stats(); full.Quant == nil || full.Quant.Beta != st.Beta {
		t.Fatalf("Stats().Quant = %+v, want the QuantStats block", full.Quant)
	}
}

func TestQuantizedRerankScoresAreExact(t *testing.T) {
	docs := topicDocs(300)
	plain, err := Build(docs, WithRank(6), WithEngine(EngineDense))
	if err != nil {
		t.Fatal(err)
	}
	qx, err := Build(docs, WithRank(6), WithEngine(EngineDense), WithQuantized(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range []string{"car brake", "astronomer orbit", "flour oven"} {
		want, err := plain.Search(ctx, q, 200)
		if err != nil {
			t.Fatal(err)
		}
		exact := map[int]float64{}
		for _, r := range want {
			exact[r.Doc] = r.Score
		}
		got, err := qx.Search(ctx, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			t.Fatalf("%q: no results", q)
		}
		// Stage 2 rescores with the exact float kernels, so every returned
		// score must equal the exhaustive scan's score for that document.
		for _, r := range got {
			if s, ok := exact[r.Doc]; !ok || s != r.Score {
				t.Fatalf("%q: doc %d score %v != exact %v", q, r.Doc, r.Score, s)
			}
		}
		// This corpus is a worst case for stage 1 — each topic's documents
		// are near-duplicates, so scores tie to within quantization error
		// and candidate membership can shuffle among them. The guarantee
		// that survives ties: the returned top hit scores at least as well
		// as the exhaustive scan's 10th hit.
		if got[0].Score < want[9].Score {
			t.Fatalf("%q: top hit score %v below exact 10th %v", q, got[0].Score, want[9].Score)
		}
	}
}

func TestQuantizedEscapeHatch(t *testing.T) {
	docs := topicDocs(150)
	plain, err := Build(docs, WithRank(5), WithEngine(EngineDense))
	if err != nil {
		t.Fatal(err)
	}
	qx, err := Build(docs, WithRank(5), WithEngine(EngineDense), WithQuantized(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := plain.Search(ctx, "galaxy orbit", 8)
	if err != nil {
		t.Fatal(err)
	}
	// A Query with NProbe 0 is the fully exact escape hatch: float
	// kernels over every document, no tier counters moved.
	exact, err := only(qx.Query(ctx, Query{Texts: []string{"galaxy orbit"}, TopN: 8, NProbe: probe(0)}))
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, exact, want, "escape hatch")
	if st, _ := quantStatsOf(qx); st.Searches != 0 {
		t.Fatalf("escape hatch moved the scan counters: %+v", st)
	}
}

func TestQuantizedComposesWithANN(t *testing.T) {
	docs := topicDocs(360)
	plain, err := Build(docs, WithRank(6), WithEngine(EngineDense))
	if err != nil {
		t.Fatal(err)
	}
	both, err := Build(docs, WithRank(6), WithEngine(EngineDense), WithANN(6, 2), WithQuantized(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := plain.Search(ctx, "telescope comet", 300)
	if err != nil {
		t.Fatal(err)
	}
	exact := map[int]float64{}
	for _, r := range want {
		exact[r.Doc] = r.Score
	}
	// The composed default search probes IVF cells AND scores them through
	// the int8 shadow; both tiers' counters must advance, and every score
	// is still an exact float64 cosine.
	got, err := both.Search(ctx, "telescope comet", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("composed search returned nothing")
	}
	for _, r := range got {
		if s, ok := exact[r.Doc]; !ok || s != r.Score {
			t.Fatalf("doc %d: composed score %v != exact %v", r.Doc, r.Score, s)
		}
	}
	ast, _ := annStatsOf(both)
	qst, _ := quantStatsOf(both)
	if ast.Searches != 1 || qst.Searches != 1 {
		t.Fatalf("tier counters: ann %+v quant %+v, want one search each", ast, qst)
	}
	// Saturating nprobe leaves the int8 route alone: bitwise the answer of
	// an index without the IVF tier at the same beta.
	quant, err := Build(docs, WithRank(6), WithEngine(EngineDense), WithQuantized(4))
	if err != nil {
		t.Fatal(err)
	}
	alone, err := quant.Search(ctx, "telescope comet", 8)
	if err != nil {
		t.Fatal(err)
	}
	full, err := only(both.Query(ctx, Query{Texts: []string{"telescope comet"}, TopN: 8, NProbe: probe(99)}))
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, full, alone, "saturated nprobe")
	// Saturating both budgets — beta of at least NumDocs/topN makes stage
	// 1 keep every document — recovers the exhaustive ranking exactly.
	wide, err := Build(docs, WithRank(6), WithEngine(EngineDense), WithANN(6, 2), WithQuantized(360/8))
	if err != nil {
		t.Fatal(err)
	}
	full, err = only(wide.Query(ctx, Query{Texts: []string{"telescope comet"}, TopN: 8, NProbe: probe(99)}))
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, full, want[:8], "saturated compose")
}

func TestQuantizedOpenBuildsTier(t *testing.T) {
	docs := topicDocs(150)
	plain, err := Build(docs, WithRank(5), WithEngine(EngineDense))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "quant.idx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The shadow is seedless derived state: Open builds it when the
	// opening options ask for the tier, and a saturated beta stays
	// exhaustive.
	ox, err := Open(path, WithQuantized(1000))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := plain.Search(ctx, "baker pastry", 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ox.Search(ctx, "baker pastry", 10)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, want, "opened saturated beta")
	if st, ok := quantStatsOf(ox); !ok || st.Segments != 1 {
		t.Fatalf("opened index QuantStats = %+v ok=%v, want a 1-shadow tier", st, ok)
	}
}

func TestQuantizedShardedEndToEnd(t *testing.T) {
	docs := topicDocs(600)
	build := func(opts ...Option) *Index {
		t.Helper()
		ix, err := Build(docs, append([]Option{WithRank(4), WithShards(2), WithAutoCompact(false)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
		return ix
	}
	plain := build()
	qx := build(WithQuantized(4))

	st, ok := quantStatsOf(qx)
	if !ok {
		t.Fatal("Stats().Quant = nil on a sharded WithQuantized index")
	}
	// Both initial per-shard segments are compacted and large enough to
	// quantize (300 docs each ≥ the 256-doc floor).
	if st.Segments != 2 || st.Docs != 600 {
		t.Fatalf("QuantStats = %+v, want 2 quantized segments over 600 docs", st)
	}

	ctx := context.Background()
	want, err := plain.Search(ctx, "telescope comet", 10)
	if err != nil {
		t.Fatal(err)
	}
	// The escape hatch reproduces the exhaustive ranking; the default
	// (beta=4) search serves exact reranked scores.
	exact, err := only(qx.Query(ctx, Query{Texts: []string{"telescope comet"}, TopN: 10, NProbe: probe(0)}))
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, exact, want, "sharded escape hatch")
	got, err := qx.Search(ctx, "telescope comet", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0].Doc != want[0].Doc || got[0].Score != want[0].Score {
		t.Fatalf("sharded quantized top hit %+v != exact %+v", got[0], want[0])
	}

	// Persistence round trip: the quant-*.qnt sidecars come back without
	// any options at open time.
	dir := t.TempDir()
	if err := qx.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	ox, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ox.Close()
	if st, ok := quantStatsOf(ox); !ok || st.Segments != 2 {
		t.Fatalf("reopened QuantStats = %+v ok=%v, want 2 quantized segments", st, ok)
	}
	reopened, err := ox.Search(ctx, "telescope comet", 10)
	if err != nil {
		t.Fatal(err)
	}
	if reopened[0].Doc != want[0].Doc || reopened[0].Score != want[0].Score {
		t.Fatalf("reopened quantized top hit %+v != exact %+v", reopened[0], want[0])
	}
}

func TestQuantizedUnconfiguredPathUntouched(t *testing.T) {
	// An index built WITHOUT WithQuantized must not carry the tier at all:
	// no stats block, no counters, searches identical to a plain build.
	docs := topicDocs(100)
	ix, err := Build(docs, WithRank(5), WithEngine(EngineDense))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := quantStatsOf(ix); ok {
		t.Fatal("Stats().Quant set on an index without the tier")
	}
	if ix.Stats().Quant != nil {
		t.Fatal("Stats().Quant non-nil on an index without the tier")
	}
}
