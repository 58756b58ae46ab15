package lsi

import (
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
)

func TestAppendDocumentReproducesIndexedVector(t *testing.T) {
	c := testCorpus(t, 3, 10, 0.05, 30, 161)
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	ix, err := Build(a, 3, Options{Engine: EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	m := ix.NumDocs()
	// Folding in column 0 again must produce its stored representation.
	id, err := ix.AppendDocument(a.Col(0))
	if err != nil {
		t.Fatal(err)
	}
	if id != m {
		t.Fatalf("new doc ID %d, want %d", id, m)
	}
	if ix.NumDocs() != m+1 {
		t.Fatalf("NumDocs %d after append", ix.NumDocs())
	}
	if mat.Dist(ix.DocVector(id), ix.DocVector(0)) > 1e-10 {
		t.Fatal("folded-in duplicate differs from original representation")
	}
	// Searching with doc 0's vector must now return both copies on top.
	res := ix.Search(a.Col(0), 2)
	seen := map[int]bool{res[0].Doc: true, res[1].Doc: true}
	if !seen[0] || !seen[id] {
		t.Fatalf("top-2 = %v, want docs 0 and %d", res, id)
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
		vec, err := corpus.DocVector(&d, c.NumTerms, corpus.CountWeighting)
		if err != nil {
			t.Fatal(err)
		}
		id, err := ix.AppendDocument(vec)
		if err != nil {
			t.Fatal(err)
		}
		// Nearest original neighbour must share the new doc's topic.
		res := ix.SearchProjected(ix.DocVector(id), 0)
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
	first, err := ix.AppendDocuments([][]float64{a.Col(0), a.Col(1)})
	if err != nil {
		t.Fatal(err)
	}
	if first != 16 || ix.NumDocs() != 18 {
		t.Fatalf("first=%d docs=%d", first, ix.NumDocs())
	}
	if mat.Dist(ix.DocVector(16), ix.DocVector(0)) > 1e-10 ||
		mat.Dist(ix.DocVector(17), ix.DocVector(1)) > 1e-10 {
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
	_, err = ix.AppendDocuments([][]float64{a.Col(0), {1, 2, 3}})
	if err == nil {
		t.Fatal("expected length error")
	}
	if ix.NumDocs() != 10 {
		t.Fatalf("index mutated on failed batch: %d docs", ix.NumDocs())
	}
}

func TestAppendDocumentWrongLengthErrors(t *testing.T) {
	c := testCorpus(t, 2, 5, 0, 8, 165)
	ix, err := BuildFromCorpus(c, 2, corpus.CountWeighting, Options{})
	if err != nil {
		t.Fatal(err)
	}
	docs := ix.NumDocs()
	if _, err := ix.AppendDocument([]float64{1}); err == nil {
		t.Fatal("expected length error")
	}
	if ix.NumDocs() != docs {
		t.Fatalf("index mutated on failed append: %d docs", ix.NumDocs())
	}
}
