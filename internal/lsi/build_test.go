package lsi

import (
	"math"
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/sparse"
)

// termCosine is the cosine of terms a and b in the LSI term space: rows
// of Uₖ·Dₖ, the term-side analogue of the document representation.
func termCosine(ix *Index, a, b int) float64 {
	s := ix.SingularValues()
	va, vb := slices.Clone(ix.Basis().Row(a)), slices.Clone(ix.Basis().Row(b))
	for j := range s {
		va[j] *= s[j]
		vb[j] *= s[j]
	}
	return mat.Cosine(va, vb)
}

func TestRelatedTermsPerfectSynonyms(t *testing.T) {
	// Terms 0 and 1 have identical occurrence patterns (perfect synonyms)
	// and term 2 is independent.
	coo := sparse.NewCOO(3, 6)
	for j := 0; j < 3; j++ {
		coo.Add(0, j, 2)
		coo.Add(1, j, 2)
	}
	for j := 3; j < 6; j++ {
		coo.Add(2, j, 3)
	}
	ix, err := Build(coo.ToCSR(), 2, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	// The exact synonym sits at cosine ≈ 1; the independent term is near
	// orthogonal.
	if got := termCosine(ix, 0, 1); got < 1-1e-9 {
		t.Fatalf("synonym cosine %v, want ≈1", got)
	}
	if got := termCosine(ix, 0, 2); math.Abs(got) > 1e-9 {
		t.Fatalf("independent term cosine %v, want ≈0", got)
	}
}

func TestBuildWithEmptyDocuments(t *testing.T) {
	// Failure injection: documents with no terms produce zero columns. The
	// index must build, represent them as zero vectors, and keep searching.
	coo := sparse.NewCOO(4, 5)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, 2)
	coo.Add(2, 3, 1)
	coo.Add(3, 3, 1)
	// Columns 2 and 4 are entirely empty.
	a := coo.ToCSR()
	ix, err := Build(a, 2, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	if n := mat.Norm(ix.DocVector(2)); n > 1e-12 {
		t.Fatalf("empty document has nonzero representation %v", n)
	}
	res := ix.Search(a.Col(0), 0)
	if len(res) != 5 {
		t.Fatalf("search returned %d results", len(res))
	}
	for _, m := range res {
		if math.IsNaN(m.Score) {
			t.Fatal("NaN score for empty document")
		}
	}
}

func TestBuildSingleDocumentCorpus(t *testing.T) {
	coo := sparse.NewCOO(3, 1)
	coo.Add(0, 0, 1)
	coo.Add(2, 0, 2)
	ix, err := Build(coo.ToCSR(), 2, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	if ix.K() != 1 || ix.NumDocs() != 1 {
		t.Fatalf("k=%d docs=%d", ix.K(), ix.NumDocs())
	}
	res := ix.Search([]float64{1, 0, 2}, 0)
	if len(res) != 1 || res[0].Score < 1-1e-9 {
		t.Fatalf("single-doc search = %v", res)
	}
}

func TestBuildFromCorpusWithEmptyDocs(t *testing.T) {
	// A corpus containing documents that lost every term (e.g. stopword-only
	// text) flows through TermDocMatrix and Build without error.
	c := &corpus.Corpus{
		NumTerms: 3,
		Docs: []corpus.Document{
			{ID: 0, Terms: []int{0, 1}, Counts: []int{1, 1}},
			{ID: 1}, // empty
			{ID: 2, Terms: []int{2}, Counts: []int{4}},
		},
	}
	ix, err := Build(corpus.TermDocMatrix(c, corpus.CountWeighting), 2, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumDocs() != 3 {
		t.Fatalf("docs %d", ix.NumDocs())
	}
}
