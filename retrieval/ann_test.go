package retrieval

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// topicDocs generates n tiny documents drawn from three disjoint topic
// vocabularies — the paper's corpus model in miniature, so the k-means
// quantizer has real clusters to find.
func topicDocs(n int) []Document {
	topics := [][]string{
		{"car", "engine", "mechanic", "brake", "dealership", "driver"},
		{"galaxy", "telescope", "orbit", "astronomer", "nebula", "comet"},
		{"flour", "oven", "yeast", "baker", "dough", "pastry"},
	}
	docs := make([]Document, n)
	for i := range docs {
		words := topics[i%len(topics)]
		var b strings.Builder
		for j := 0; j < 8; j++ {
			b.WriteString(words[(i+j*j)%len(words)])
			b.WriteByte(' ')
		}
		docs[i] = Document{ID: fmt.Sprintf("d%04d", i), Text: b.String()}
	}
	return docs
}

func TestWithANNRequiresLSI(t *testing.T) {
	_, err := BuildVSM(DemoCorpus(), WithANN(4, 2))
	if err == nil || !strings.Contains(err.Error(), "WithANN") {
		t.Fatalf("BuildVSM(WithANN) = %v, want an error naming WithANN", err)
	}
}

func TestANNFullProbeBitwiseEqualsExhaustive(t *testing.T) {
	docs := topicDocs(240)
	plain, err := Build(docs, WithRank(6), WithEngine(EngineDense))
	if err != nil {
		t.Fatal(err)
	}
	// nprobe = nlist: every cell is probed, so the default search must
	// reproduce the exhaustive ranking bit for bit.
	ann, err := Build(docs, WithRank(6), WithEngine(EngineDense), WithANN(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range []string{"car engine", "telescope nebula", "yeast dough", "mechanic comet"} {
		want, err := plain.Search(ctx, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ann.Search(ctx, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, got, want, "full-probe "+q)
	}
	st, ok := annStatsOf(ann)
	if !ok {
		t.Fatal("Stats().ANN = nil on a WithANN index")
	}
	if st.Segments != 1 || st.Docs != 240 {
		t.Fatalf("ANNStats = %+v, want 1 segment over 240 docs", st)
	}
	if st.Searches == 0 || st.CellsProbed == 0 || st.DocsScored == 0 {
		t.Fatalf("probe counters did not advance: %+v", st)
	}
	if full := ann.Stats(); full.ANN == nil || full.ANN.NList != st.NList {
		t.Fatalf("Stats().ANN = %+v, want the ANNStats block", full.ANN)
	}
}

func TestANNZeroProbeDefaultStaysExhaustive(t *testing.T) {
	docs := topicDocs(120)
	plain, err := Build(docs, WithRank(6), WithEngine(EngineDense))
	if err != nil {
		t.Fatal(err)
	}
	// nprobe 0: quantizers train, but the default search path must not
	// touch them — only a per-request override probes.
	ann, err := Build(docs, WithRank(6), WithEngine(EngineDense), WithANN(6, 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := plain.Search(ctx, "galaxy orbit", 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ann.Search(ctx, "galaxy orbit", 8)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, want, "default search")
	if st, _ := annStatsOf(ann); st.Searches != 0 {
		t.Fatalf("default search probed the tier: %+v", st)
	}

	// Per-request overrides: a full budget is bitwise-exhaustive, a zero
	// budget is the explicit escape hatch, and both leave results sorted.
	full, err := only(ann.Query(ctx, Query{Texts: []string{"galaxy orbit"}, TopN: 8, NProbe: probe(6)}))
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, full, want, "full-budget probe")
	exact, err := only(ann.Query(ctx, Query{Texts: []string{"galaxy orbit"}, TopN: 8, NProbe: probe(0)}))
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, exact, want, "exact escape hatch")
	if st, _ := annStatsOf(ann); st.Searches != 1 {
		t.Fatalf("ANNStats.Searches = %d, want 1 (only the full-budget probe)", st.Searches)
	}

	narrow, err := only(ann.Query(ctx, Query{Texts: []string{"galaxy orbit"}, TopN: 8, NProbe: probe(1)}))
	if err != nil {
		t.Fatal(err)
	}
	if len(narrow) == 0 {
		t.Fatal("nprobe=1 returned no results")
	}
	for i := 1; i < len(narrow); i++ {
		if narrow[i].Score > narrow[i-1].Score {
			t.Fatalf("nprobe=1 results unsorted: %+v", narrow)
		}
	}
}

func TestSearchProbeErrorContracts(t *testing.T) {
	ann, err := Build(topicDocs(60), WithRank(4), WithEngine(EngineDense), WithANN(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// An unknown-vocabulary text matches nothing, at any budget.
	if res, err := only(ann.Query(ctx, Query{Texts: []string{"zzzunknownzzz"}, TopN: 3, NProbe: probe(2)})); err != nil || res == nil || len(res) != 0 {
		t.Fatalf("unknown-vocabulary probe = %v, %v, want an empty list", res, err)
	}
	if _, err := only(ann.Query(ctx, Query{Vector: make([]float64, ann.NumTerms()+3), TopN: 3, NProbe: probe(2)})); !errors.Is(err, ErrVectorLength) {
		t.Fatalf("wrong-length vector probe = %v, want ErrVectorLength", err)
	}

	// A full-budget vector probe reproduces the default vector query exactly.
	q := make([]float64, ann.NumTerms())
	for i := 0; i < len(q); i += 3 {
		q[i] = 1
	}
	want, err := only(ann.Query(ctx, Query{Vector: q, TopN: 5}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := only(ann.Query(ctx, Query{Vector: q, TopN: 5, NProbe: probe(99)}))
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, want, "vector full probe")
}

func TestANNOpenTrainsTier(t *testing.T) {
	docs := topicDocs(150)
	plain, err := Build(docs, WithRank(5), WithEngine(EngineDense))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ann.idx")
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

	// The quantizer is derived state: Open retrains it when the opening
	// options ask for the tier, and a full budget stays exhaustive.
	ox, err := Open(path, WithANN(8, 8))
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
	sameResults(t, got, want, "opened full probe")
	if st, ok := annStatsOf(ox); !ok || st.Segments != 1 {
		t.Fatalf("opened index ANNStats = %+v ok=%v, want a 1-segment tier", st, ok)
	}
}

func TestANNShardedEndToEnd(t *testing.T) {
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
	ann := build(WithANN(6, 2))

	st, ok := annStatsOf(ann)
	if !ok {
		t.Fatal("Stats().ANN = nil on a sharded WithANN index")
	}
	// Both initial per-shard segments are compacted and large enough to
	// train (300 docs each ≥ the 256-doc floor).
	if st.Segments != 2 || st.Docs != 600 {
		t.Fatalf("ANNStats = %+v, want 2 quantized segments over 600 docs", st)
	}

	ctx := context.Background()
	want, err := plain.Search(ctx, "telescope comet", 10)
	if err != nil {
		t.Fatal(err)
	}
	// Escape hatch and full budget both reproduce the exhaustive
	// ranking; the default (nprobe=2) search must at least stay sorted
	// and within the corpus.
	exact, err := only(ann.Query(ctx, Query{Texts: []string{"telescope comet"}, TopN: 10, NProbe: probe(0)}))
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, exact, want, "sharded escape hatch")
	full, err := only(ann.Query(ctx, Query{Texts: []string{"telescope comet"}, TopN: 10, NProbe: probe(6)}))
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, full, want, "sharded full budget")

	// Persistence round trip: the sidecars come back without any ANN
	// options at open time, so per-request probes keep working.
	dir := t.TempDir()
	if err := ann.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	ox, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ox.Close()
	if st, ok := annStatsOf(ox); !ok || st.Segments != 2 {
		t.Fatalf("reopened ANNStats = %+v ok=%v, want 2 quantized segments", st, ok)
	}
	reopened, err := only(ox.Query(ctx, Query{Texts: []string{"telescope comet"}, TopN: 10, NProbe: probe(6)}))
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, reopened, want, "reopened full budget")
}
