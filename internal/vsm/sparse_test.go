package vsm

import (
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/par"
	"repro/internal/race"
	"repro/internal/sparse"
)

// skipUnderRace skips exact allocation-count assertions under -race: the
// instrumented runtime allocates inside sync.Pool.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
}

func TestSearchSparseUnsortedAndDuplicateTerms(t *testing.T) {
	ix, a := buildIndex(t)
	dense := ix.Search([]float64{0, 2, 0, 1}, 0)
	// Unsorted input must match the dense reference bitwise.
	unsorted := ix.SearchSparse([]int{3, 1}, []float64{1, 2}, 0)
	// Duplicate terms accumulate like q[t] += w does on the dense path.
	dup := ix.SearchSparse([]int{3, 1, 1}, []float64{1, 0.5, 1.5}, 0)
	for i := range dense {
		if dense[i] != unsorted[i] {
			t.Fatalf("unsorted result %d: %+v vs %+v", i, unsorted[i], dense[i])
		}
		if dense[i] != dup[i] {
			t.Fatalf("duplicate-term result %d: %+v vs %+v", i, dup[i], dense[i])
		}
	}
	// Inputs must come back untouched (normalization copies into scratch).
	terms := []int{3, 1}
	weights := []float64{1, 2}
	ix.SearchSparse(terms, weights, 0)
	if terms[0] != 3 || terms[1] != 1 || weights[0] != 1 || weights[1] != 2 {
		t.Fatalf("caller slices mutated: %v %v", terms, weights)
	}
	_ = a
}

// TestSearchSparseNoVocabularyDensify is the regression test for the old
// implementation's vocabulary-length allocation: on an index with a huge
// vocabulary, a short sparse query must allocate only the result slice —
// in particular, nothing proportional to the number of terms.
func TestSearchSparseNoVocabularyDensify(t *testing.T) {
	const bigVocab = 500000
	coo := sparse.NewCOO(bigVocab, 50)
	rng := rand.New(rand.NewSource(551))
	for d := 0; d < 50; d++ {
		for i := 0; i < 30; i++ {
			coo.Add(rng.Intn(bigVocab), d, 1+rng.Float64())
		}
	}
	// A handful of terms guaranteed to have postings.
	coo.Add(7, 3, 2)
	coo.Add(999, 3, 1)
	coo.Add(450001, 4, 3)
	ix := NewFromMatrix(coo.ToCSR())
	terms := []int{7, 999, 450001}
	weights := []float64{1, 2, 1}
	if res := ix.SearchSparse(terms, weights, 10); len(res) == 0 {
		t.Fatal("query found nothing; test corpus is wrong")
	}
	skipUnderRace(t)
	allocs := testing.AllocsPerRun(100, func() {
		ix.SearchSparse(terms, weights, 10)
	})
	// One allocation: the returned matches. A densifying implementation
	// would add a 4 MB []float64 per call.
	if allocs > 1 {
		t.Fatalf("SearchSparse allocated %v/op on a %d-term vocabulary, want <= 1", allocs, bigVocab)
	}
}

func vsmAllocIndex(t *testing.T) (*Index, []float64) {
	t.Helper()
	model, err := corpus.PureSeparableModel(corpus.SeparableConfig{
		NumTopics: 4, TermsPerTopic: 20, Epsilon: 0.05, MinLen: 30, MaxLen: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Generate(model, 100, rand.New(rand.NewSource(553)))
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	return NewFromMatrix(a), a.Col(0)
}

func TestSearchAllocsOnlyResult(t *testing.T) {
	skipUnderRace(t)
	old := par.SetMaxProcs(1)
	defer par.SetMaxProcs(old)
	ix, q := vsmAllocIndex(t)
	for _, tc := range []struct {
		name string
		topN int
	}{{"top10", 10}, {"all", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(200, func() { ix.Search(q, tc.topN) }); got != 1 {
				t.Fatalf("%v allocs/op, want 1 (the result slice only)", got)
			}
		})
	}
}

func TestAppendSearchZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	old := par.SetMaxProcs(1)
	defer par.SetMaxProcs(old)
	ix, q := vsmAllocIndex(t)
	dst := make([]Match, 0, ix.NumDocs())
	terms := make([]int, 0, 64)
	weights := make([]float64, 0, 64)
	for t2, w := range q {
		if w != 0 {
			terms = append(terms, t2)
			weights = append(weights, w)
		}
	}
	cases := []struct {
		name string
		run  func()
	}{
		{"AppendSearch/top10", func() { dst = ix.AppendSearch(dst[:0], q, 10) }},
		{"AppendSearch/all", func() { dst = ix.AppendSearch(dst[:0], q, 0) }},
		{"AppendSearchSparse/top10", func() { dst = ix.AppendSearchSparse(dst[:0], terms, weights, 10) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(200, tc.run); got != 0 {
				t.Fatalf("%v allocs/op, want 0 with a caller-provided buffer", got)
			}
		})
	}
}
