package vsm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/sparse"
)

func buildIndex(t *testing.T) (*Index, *sparse.CSR) {
	t.Helper()
	// 4 terms × 3 docs.
	coo := sparse.NewCOO(4, 3)
	coo.Add(0, 0, 2) // doc0: term0 ×2, term1 ×1
	coo.Add(1, 0, 1)
	coo.Add(1, 1, 3) // doc1: term1 ×3
	coo.Add(2, 2, 1) // doc2: term2, term3
	coo.Add(3, 2, 1)
	a := coo.ToCSR()
	return NewFromMatrix(a), a
}

func TestIndexBasics(t *testing.T) {
	ix, _ := buildIndex(t)
	if ix.NumTerms() != 4 || ix.NumDocs() != 3 {
		t.Fatalf("dims %d %d", ix.NumTerms(), ix.NumDocs())
	}
	if ix.DocFrequency(1) != 2 || ix.DocFrequency(3) != 1 || ix.DocFrequency(0) != 1 {
		t.Fatal("DocFrequency wrong")
	}
}

func TestSearchExactCosines(t *testing.T) {
	ix, a := buildIndex(t)
	// Query = doc0's own vector: top hit is doc0 with score 1.
	res := ix.Search(a.Col(0), 0)
	if res[0].Doc != 0 || math.Abs(res[0].Score-1) > 1e-12 {
		t.Fatalf("self-query top = %+v", res[0])
	}
	// Doc1 shares term1: cosine = (1*3)/(sqrt(5)*3) = 1/sqrt(5).
	if res[1].Doc != 1 || math.Abs(res[1].Score-1/math.Sqrt(5)) > 1e-12 {
		t.Fatalf("second = %+v", res[1])
	}
	// Doc2 has no overlap: omitted entirely.
	if len(res) != 2 {
		t.Fatalf("expected 2 matches, got %d", len(res))
	}
}

func TestSynonymyFailure(t *testing.T) {
	// The classic failure the paper opens with: querying "car" misses
	// documents that only say "automobile". Term 0 = car, term 1 =
	// automobile; doc0 uses car, doc1 uses automobile.
	coo := sparse.NewCOO(2, 2)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, 1)
	ix := NewFromMatrix(coo.ToCSR())
	res := ix.Search([]float64{1, 0}, 0)
	if len(res) != 1 || res[0].Doc != 0 {
		t.Fatalf("VSM should retrieve only the literal match, got %+v", res)
	}
}

func TestSearchTopNAndTies(t *testing.T) {
	// Two identical docs tie: deterministic order by doc ID.
	coo := sparse.NewCOO(1, 3)
	coo.Add(0, 0, 1)
	coo.Add(0, 1, 1)
	coo.Add(0, 2, 2)
	ix := NewFromMatrix(coo.ToCSR())
	res := ix.Search([]float64{1}, 0)
	if len(res) != 3 {
		t.Fatalf("matches %d", len(res))
	}
	if res[0].Doc != 0 || res[1].Doc != 1 || res[2].Doc != 2 {
		t.Fatalf("tie order %v", res)
	}
	if got := ix.Search([]float64{1}, 2); len(got) != 2 {
		t.Fatalf("topN clamp: %d", len(got))
	}
}

func TestSearchZeroQuery(t *testing.T) {
	ix, _ := buildIndex(t)
	if res := ix.Search(make([]float64, 4), 0); res != nil {
		t.Fatalf("zero query returned %v", res)
	}
}

func TestSearchPanics(t *testing.T) {
	ix, _ := buildIndex(t)
	for i, f := range []func(){
		func() { ix.Search([]float64{1}, 0) },
		func() { ix.SearchSparse([]int{0}, []float64{1, 2}, 0) },
		func() { ix.SearchSparse([]int{9}, []float64{1}, 0) },
		func() { ix.DocFrequency(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestSearchSparseMatchesDense(t *testing.T) {
	ix, _ := buildIndex(t)
	dense := ix.Search([]float64{0, 2, 0, 1}, 0)
	sparseQ := ix.SearchSparse([]int{1, 3}, []float64{2, 1}, 0)
	if len(dense) != len(sparseQ) {
		t.Fatalf("lengths %d vs %d", len(dense), len(sparseQ))
	}
	for i := range dense {
		if dense[i] != sparseQ[i] {
			t.Fatalf("result %d: %+v vs %+v", i, dense[i], sparseQ[i])
		}
	}
}

func TestVSMAgainstBruteForce(t *testing.T) {
	// Inverted-index scores must equal brute-force cosine over dense
	// columns for random corpora.
	rng := rand.New(rand.NewSource(131))
	model, err := corpus.PureSeparableModel(corpus.SeparableConfig{
		NumTopics: 3, TermsPerTopic: 10, Epsilon: 0.1, MinLen: 20, MaxLen: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Generate(model, 25, rng)
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	ix := NewFromMatrix(a)
	q := a.Col(3)
	res := ix.Search(q, 0)
	scores := map[int]float64{}
	for _, m := range res {
		scores[m.Doc] = m.Score
	}
	for j := 0; j < 25; j++ {
		want := mat.Cosine(q, a.Col(j))
		got, present := scores[j]
		if want == 0 {
			if present && got != 0 {
				t.Fatalf("doc %d: zero-overlap doc scored %v", j, got)
			}
			continue
		}
		if math.Abs(got-want) > 1e-10 {
			t.Fatalf("doc %d: score %v, brute force %v", j, got, want)
		}
	}
}
