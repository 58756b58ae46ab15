package lsi

import (
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
)

// foldIn folds the term-space documents ds into a copy of ix through
// ExtendedSparse, the fold-in serving runs.
func foldIn(t *testing.T, ix *Index, ds ...[]float64) *Index {
	t.Helper()
	terms, weights := make([][]int, len(ds)), make([][]float64, len(ds))
	for i, d := range ds {
		terms[i], weights[i] = sparseDoc(d)
	}
	ext, err := ix.ExtendedSparse(terms, weights)
	if err != nil {
		t.Fatal(err)
	}
	return ext
}

func TestAppendDocumentReproducesIndexedVector(t *testing.T) {
	c := testCorpus(t, 3, 10, 0.05, 30, 161)
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	ix, err := Build(a, 3, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	m := ix.NumDocs()
	// Folding in column 0 again must produce its stored representation.
	ext := foldIn(t, ix, a.Col(0))
	if ext.NumDocs() != m+1 {
		t.Fatalf("NumDocs %d after append", ext.NumDocs())
	}
	if mat.Dist(ext.DocVector(m), ext.DocVector(0)) > 1e-10 {
		t.Fatal("folded-in duplicate differs from original representation")
	}
	// Searching with doc 0's vector must now return both copies on top.
	res := ext.Search(a.Col(0), 2)
	seen := map[int]bool{res[0].Doc: true, res[1].Doc: true}
	if !seen[0] || !seen[m] {
		t.Fatalf("top-2 = %v, want docs 0 and %d", res, m)
	}
}

func TestAppendDocumentFromModel(t *testing.T) {
	// Fold in fresh documents drawn from the same model: they should land
	// near their topic's existing documents.
	model, err := corpus.PureSeparableModel(corpus.SeparableConfig{
		NumTopics: 3, TermsPerTopic: 15, Epsilon: 0, MinLen: 50, MaxLen: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(162))
	c, err := corpus.Generate(model, 45, rng)
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	labels := c.Labels()
	ix, err := Build(a, 3, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := corpus.Generate(model, 9, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fresh.Docs {
		counts := make([]float64, len(d.Counts))
		for i, n := range d.Counts {
			counts[i] = float64(n)
		}
		if ix, err = ix.ExtendedSparse([][]int{d.Terms}, [][]float64{counts}); err != nil {
			t.Fatal(err)
		}
		id := ix.NumDocs() - 1
		// Nearest original neighbour must share the new doc's topic.
		res := ix.AppendSearchProjected(nil, ix.DocVector(id), 0)
		for _, m := range res {
			if m.Doc == id {
				continue
			}
			if m.Doc < len(labels) && labels[m.Doc] != d.Spec.PrimaryTopic() {
				t.Fatalf("folded-in doc of topic %d nearest to doc of topic %d",
					d.Spec.PrimaryTopic(), labels[m.Doc])
			}
			break
		}
	}
}

func TestAppendDocumentsBatch(t *testing.T) {
	c := testCorpus(t, 2, 8, 0.05, 16, 163)
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	ix, err := Build(a, 2, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	ext := foldIn(t, ix, a.Col(0), a.Col(1))
	if ix.NumDocs() != 16 || ext.NumDocs() != 18 {
		t.Fatalf("docs=%d, extended %d", ix.NumDocs(), ext.NumDocs())
	}
	if mat.Dist(ext.DocVector(16), ext.DocVector(0)) > 1e-10 ||
		mat.Dist(ext.DocVector(17), ext.DocVector(1)) > 1e-10 {
		t.Fatal("batch fold-in wrong representations")
	}
}

func TestAppendDocumentsValidatesBeforeMutating(t *testing.T) {
	c := testCorpus(t, 2, 8, 0.05, 10, 164)
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	ix, err := Build(a, 2, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	terms, weights := sparseDoc(a.Col(0))
	_, err = ix.ExtendedSparse([][]int{terms, {ix.NumTerms()}}, [][]float64{weights, {1}})
	if err == nil {
		t.Fatal("expected range error")
	}
	if ix.NumDocs() != 10 {
		t.Fatalf("index mutated on failed batch: %d docs", ix.NumDocs())
	}
}

func TestAppendDocumentWrongLengthErrors(t *testing.T) {
	c := testCorpus(t, 2, 5, 0, 8, 165)
	ix, err := Build(corpus.TermDocMatrix(c, corpus.CountWeighting), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	docs := ix.NumDocs()
	if _, err := ix.ExtendedSparse([][]int{{0}}, [][]float64{{1, 2}}); err == nil {
		t.Fatal("expected length error")
	}
	if ix.NumDocs() != docs {
		t.Fatalf("index mutated on failed append: %d docs", ix.NumDocs())
	}
}
