package retrieval

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/retrieval/cache"
)

// backend is what Build and BuildVSM both return: a Retriever with the
// single-text Search beside Query.
type backend interface {
	Retriever
	Search(ctx context.Context, query string, topN int) ([]Result, error)
}

// builder is Build or BuildVSM behind the backend interface, for tests
// that run on both.
type builder func(docs []Document, opts ...Option) (backend, error)

func buildLSI(docs []Document, opts ...Option) (backend, error) { return Build(docs, opts...) }
func buildVSM(docs []Document, opts ...Option) (backend, error) { return BuildVSM(docs, opts...) }

// only returns a single-list Query answer's one list — the shape of the
// single-query tests.
func only(ans Answer, err error) ([]Result, error) {
	if err != nil {
		return nil, err
	}
	return ans.Results[0], nil
}

// status is only with the answer's cache disposition.
func status(ans Answer, err error) ([]Result, cache.Status, error) {
	res, err := only(ans, err)
	return res, ans.Cache, err
}

// annStatsOf and quantStatsOf read a tier's Stats block; ok is false
// when the index has no such tier.
func annStatsOf(ix *Index) (ANNStats, bool) {
	if st := ix.Stats().ANN; st != nil {
		return *st, true
	}
	return ANNStats{}, false
}

func quantStatsOf(ix *Index) (QuantStats, bool) {
	if st := ix.Stats().Quant; st != nil {
		return *st, true
	}
	return QuantStats{}, false
}

// probe is a Query.NProbe budget.
func probe(n int) *int { return &n }

func demoLSI(t *testing.T, opts ...Option) *Index {
	t.Helper()
	ix, err := Build(DemoCorpus(), append([]Option{WithRank(3), WithEngine(EngineDense)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestBuildEmptyCorpus(t *testing.T) {
	if _, err := Build(nil); !errors.Is(err, ErrEmptyCorpus) {
		t.Fatalf("Build(nil) = %v, want ErrEmptyCorpus", err)
	}
	// Every token is a stopword: preprocessing empties the vocabulary.
	if _, err := BuildTexts([]string{"the and of", "a an it"}); !errors.Is(err, ErrEmptyCorpus) {
		t.Fatalf("all-stopword corpus = %v, want ErrEmptyCorpus", err)
	}
}

func TestLSISynonymyRetrieval(t *testing.T) {
	ix := demoLSI(t)
	res, err := ix.Search(context.Background(), "car", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("got %d results, want 4", len(res))
	}
	// The paper's synonymy effect: LSI must surface the "automobile"
	// documents (1 and 2) for a "car" query even though they never use
	// the word.
	got := map[int]bool{}
	for _, r := range res {
		got[r.Doc] = true
		if r.ID != DemoCorpus()[r.Doc].ID {
			t.Fatalf("doc %d carries ID %q, want %q", r.Doc, r.ID, DemoCorpus()[r.Doc].ID)
		}
	}
	for _, want := range []int{0, 1, 2, 3} {
		if !got[want] {
			t.Fatalf("LSI top-4 for \"car\" = %+v, missing vehicle doc %d", res, want)
		}
	}
}

func TestVSMBaselineMissesSynonyms(t *testing.T) {
	ix, err := BuildVSM(DemoCorpus())
	if err != nil {
		t.Fatal(err)
	}
	if st := ix.Stats(); st.Rank != 0 || st.Backend != "vsm" {
		t.Fatalf("VSM stats = %+v, want backend vsm at rank 0", st)
	}
	res, err := ix.Search(context.Background(), "car", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Literal matching retrieves only the documents containing "car".
	for _, r := range res {
		if r.Doc == 1 || r.Doc == 2 {
			t.Fatalf("VSM retrieved synonym-only doc %d for \"car\": %+v", r.Doc, res)
		}
	}
}

// BuildVSM takes the text options and refuses, by name, the options only
// an LSI index can serve (the tier options have tests of their own:
// TestWithANNRequiresLSI, TestWithQuantizedRequiresLSI).
func TestBuildVSMOptions(t *testing.T) {
	for name, opt := range map[string]Option{"WithShards": WithShards(2), "WithQueryCache": WithQueryCache(1 << 20)} {
		if _, err := BuildVSM(DemoCorpus(), opt); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("BuildVSM(%s) = %v, want an error naming it", name, err)
		}
	}
	if _, err := BuildVSM(DemoCorpus(), WithQueryCache(0), WithRank(7)); err != nil {
		t.Fatalf("a zero cache budget and a rank are harmless: %v", err)
	}
	if _, err := BuildVSM(nil); !errors.Is(err, ErrEmptyCorpus) {
		t.Fatalf("BuildVSM(nil) = %v, want ErrEmptyCorpus", err)
	}
	plain, err := BuildVSM(DemoCorpus(), WithWeighting(WeightingTFIDF))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := BuildVSM(DemoCorpus(), WithStopwordRemoval(false), WithStemming(false))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats().Weighting != "tfidf" || raw.Stats().VocabSize <= plain.Stats().VocabSize {
		t.Fatalf("text options ignored: %+v vs %+v", plain.Stats(), raw.Stats())
	}
	// Without stopword removal "the" is a term, and a query for it hits.
	if _, err := raw.Search(context.Background(), "the", 1); err != nil {
		t.Fatalf("stopword query on a stopword-keeping index: %v", err)
	}
	if _, err := plain.Search(context.Background(), "the", 1); !errors.Is(err, ErrNoQueryTerms) {
		t.Fatalf("stopword query = %v, want ErrNoQueryTerms", err)
	}
}

func TestSearchErrorContracts(t *testing.T) {
	ix := demoLSI(t)
	ctx := context.Background()

	if _, err := ix.Search(ctx, "zzzunknownzzz", 3); !errors.Is(err, ErrNoQueryTerms) {
		t.Fatalf("unknown-vocabulary query = %v, want ErrNoQueryTerms", err)
	}
	if _, err := only(ix.Query(ctx, Query{Vector: []float64{1, 2, 3}, TopN: 3})); !errors.Is(err, ErrVectorLength) {
		t.Fatalf("short vector = %v, want ErrVectorLength", err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := ix.Search(canceled, "car", 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Search = %v, want context.Canceled", err)
	}
	if _, err := ix.SearchBatch(canceled, []string{"car"}, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled SearchBatch = %v, want context.Canceled", err)
	}
	vsm, err := BuildVSM(DemoCorpus())
	if err != nil {
		t.Fatal(err)
	}
	// Every batch shape checks ctx, an empty batch included.
	for _, texts := range [][]string{nil, {"car", "pasta"}, make([]string, 2*batchChunk+1)} {
		for _, r := range []Retriever{ix, vsm} {
			if _, err := r.Query(canceled, Query{Texts: texts, TopN: 3}); !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled %d-text %s Query = %v, want context.Canceled", len(texts), r.Stats().Backend, err)
			}
		}
		if _, err := ix.Query(canceled, Query{Texts: texts, TopN: 3, NProbe: probe(0)}); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled %d-text budgeted Query = %v, want context.Canceled", len(texts), err)
		}
	}
}

func TestSearchVectorMatchesTextSearch(t *testing.T) {
	ix := demoLSI(t)
	ctx := context.Background()
	fromText, err := ix.Search(ctx, "galaxy stars", 3)
	if err != nil {
		t.Fatal(err)
	}
	// Densify the sparse query the text path uses: the dense vector query
	// path must agree with the sparse hot path bitwise.
	terms, weights, known := ix.querySparse("galaxy stars")
	if known == 0 {
		t.Fatal("demo query missed the vocabulary")
	}
	q := make([]float64, ix.NumTerms())
	for i, term := range terms {
		q[term] = weights[i]
	}
	fromVec, err := only(ix.Query(ctx, Query{Vector: q, TopN: 3}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range fromText {
		if fromText[i] != fromVec[i] {
			t.Fatalf("result %d differs: %+v vs %+v", i, fromText[i], fromVec[i])
		}
	}
}

func TestSearchBatchMatchesSearch(t *testing.T) {
	for _, build := range []builder{buildLSI, buildVSM} {
		ix, err := build(DemoCorpus(), WithRank(3), WithEngine(EngineDense))
		if err != nil {
			t.Fatal(err)
		}
		backend := ix.Stats().Backend
		ctx := context.Background()
		queries := []string{"car engine", "zzzunknownzzz", "pasta garlic", "telescope galaxy"}
		ans, err := ix.Query(ctx, Query{Texts: queries, TopN: 3})
		if err != nil {
			t.Fatal(err)
		}
		batch := ans.Results
		if len(batch) != len(queries) {
			t.Fatalf("%v: %d batch results for %d queries", backend, len(batch), len(queries))
		}
		if len(batch[1]) != 0 || batch[1] == nil {
			t.Fatalf("%v: unknown-vocabulary query should give empty non-nil results, got %#v", backend, batch[1])
		}
		for i, q := range queries {
			if i == 1 {
				continue
			}
			single, err := ix.Search(ctx, q, 3)
			if err != nil {
				t.Fatal(err)
			}
			if len(single) != len(batch[i]) {
				t.Fatalf("%v query %d: batch %d results, single %d", backend, i, len(batch[i]), len(single))
			}
			for j := range single {
				if single[j] != batch[i][j] {
					t.Fatalf("%v query %d result %d: %+v vs %+v", backend, i, j, batch[i][j], single[j])
				}
			}
		}
	}
}

func TestStats(t *testing.T) {
	ix := demoLSI(t)
	s := ix.Stats()
	if s.Backend != "lsi" || s.NumDocs != 12 || s.Rank != 3 || s.Weighting != "log" || s.VocabSize != s.NumTerms {
		t.Fatalf("stats = %+v", s)
	}
	if s.NumTerms != ix.NumTerms() || s.NumTerms == 0 {
		t.Fatalf("stats terms = %d, index %d", s.NumTerms, ix.NumTerms())
	}
}

func TestAutoRank(t *testing.T) {
	cases := []struct{ n, m, want int }{
		{10, 12, 2},      // tiny corpus floors at 2
		{69, 12, 3},      // demo-corpus shape
		{2000, 900, 100}, // large corpora cap at 100
	}
	for _, c := range cases {
		if got := autoRank(c.n, c.m); got != c.want {
			t.Fatalf("autoRank(%d,%d) = %d, want %d", c.n, c.m, got, c.want)
		}
	}
}

func TestParseRoundTrips(t *testing.T) {
	for _, w := range []Weighting{WeightingCount, WeightingBinary, WeightingLog, WeightingTFIDF} {
		got, err := ParseWeighting(w.String())
		if err != nil || got != w {
			t.Fatalf("ParseWeighting(%q) = %v, %v", w.String(), got, err)
		}
	}
	if _, err := ParseWeighting("nope"); err == nil {
		t.Fatal("ParseWeighting should reject unknown names")
	}
	// The values and names are part of the API (flags, wire metadata).
	for w, name := range map[Weighting]string{0: "count", 1: "binary", 2: "log", 3: "tfidf", 9: "Weighting(9)"} {
		if w.String() != name {
			t.Errorf("Weighting(%d).String() = %q, want %q", int(w), w.String(), name)
		}
	}
	if EngineAuto != 0 || EngineDense != 1 || EngineRandomized != 2 {
		t.Errorf("engines are %d, %d, %d, want 0, 1, 2", int(EngineAuto), int(EngineDense), int(EngineRandomized))
	}
	// An unknown value is refused at the boundary with an error, sharded
	// builds included, never a panic.
	for name, build := range map[string]func() error{
		"Build(Weighting(9))":    func() error { _, err := Build(DemoCorpus(), WithWeighting(Weighting(9))); return err },
		"BuildVSM(Weighting(9))": func() error { _, err := BuildVSM(DemoCorpus(), WithWeighting(Weighting(9))); return err },
		"Build(Engine(9))":       func() error { _, err := Build(DemoCorpus(), WithEngine(Engine(9))); return err },
		"sharded Build(Engine(9))": func() error {
			_, err := Build(DemoCorpus(), WithEngine(Engine(9)), WithShards(2))
			return err
		},
	} {
		if err := build(); err == nil {
			t.Errorf("%s succeeded, want an error", name)
		}
	}
}

func TestWeightingOptionsBuild(t *testing.T) {
	// Every weighting (including TF-IDF, whose queries fall back to raw
	// counts) must build and answer queries on both backends.
	for _, w := range []Weighting{WeightingCount, WeightingBinary, WeightingLog, WeightingTFIDF} {
		for _, build := range []builder{buildLSI, buildVSM} {
			ix, err := build(DemoCorpus(), WithRank(3), WithWeighting(w))
			if err != nil {
				t.Fatalf("%v: %v", w, err)
			}
			b := ix.Stats().Backend
			res, err := ix.Search(context.Background(), "garlic pasta", 2)
			if err != nil {
				t.Fatalf("%v/%v: %v", w, b, err)
			}
			if len(res) == 0 || res[0].Doc < 8 {
				t.Fatalf("%v/%v: cooking query returned %+v", w, b, res)
			}
		}
	}
}
