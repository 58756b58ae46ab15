package experiments

// End-to-end integration tests: raw text → ir pipeline → term-document
// matrix → LSI / VSM / two-step / graph discovery, crossing every module
// boundary the way a downstream user would.

import (
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/graphmodel"
	"repro/internal/ir"
	"repro/internal/lsi"
	"repro/internal/randproj"
	"repro/internal/sparse"
	"repro/internal/vsm"
)

func buildTextIndex(t *testing.T) (*ir.Pipeline, *sparse.CSR, *lsi.Index, *vsm.Index) {
	t.Helper()
	pipe := ir.NewPipeline()
	a := pipe.TermDocMatrix(ir.SampleTexts(), corpus.LogWeighting)
	index, err := lsi.Build(a, 3, lsi.Options{Engine: lsi.EngineDense})
	if err != nil {
		t.Fatal(err)
	}
	return pipe, a, index, vsm.NewFromMatrix(a)
}

func textQuery(t *testing.T, pipe *ir.Pipeline, numTerms int, text string) []float64 {
	t.Helper()
	q := make([]float64, numTerms)
	found := 0
	for _, term := range pipe.Terms(text) {
		if id, ok := pipe.Vocab.Lookup(term); ok {
			q[id]++
			found++
		}
	}
	if found == 0 {
		t.Fatalf("query %q has no known terms", text)
	}
	return q
}

func TestTextPipelineThemeSeparation(t *testing.T) {
	// The three themes of the sample corpus must be separable in the
	// rank-3 LSI space.
	pipe, c, index, _ := buildTextIndex(t)
	_ = pipe
	labels := ir.SampleLabels()
	skew := index.Skew(labels)
	if skew > 0.6 {
		t.Fatalf("LSI skew %v on the text sample corpus", skew)
	}
	set := index.Angles(labels)
	intra, inter := set.Summaries()
	if intra.Mean >= inter.Mean {
		t.Fatalf("intratopic mean %v not below intertopic %v", intra.Mean, inter.Mean)
	}
	if c.Rows() < 30 {
		t.Fatalf("vocabulary suspiciously small: %d", c.Rows())
	}
}

func TestTextSynonymyRetrieval(t *testing.T) {
	// Query "car": the "automobile" documents (theme 0, odd positions)
	// never contain the literal token, so VSM cannot retrieve them; LSI
	// must rank them above the other themes.
	pipe, c, index, baseline := buildTextIndex(t)
	q := textQuery(t, pipe, c.Rows(), "car")
	labels := ir.SampleLabels()

	lsiTop := index.Search(q, 8)
	for _, m := range lsiTop {
		if labels[m.Doc] != 0 {
			t.Fatalf("LSI top-8 for 'car' contains theme-%d doc %d", labels[m.Doc], m.Doc)
		}
	}
	// At least one automobile-only document in the LSI top-8.
	carID, _ := pipe.Vocab.Lookup(ir.Stem("car"))
	foundNonLiteral := false
	for _, m := range lsiTop {
		if c.At(carID, m.Doc) == 0 {
			foundNonLiteral = true
			break
		}
	}
	if !foundNonLiteral {
		t.Fatal("LSI top-8 contains only literal 'car' matches")
	}
	// VSM retrieves only literal matches.
	for _, m := range baseline.Search(q, 0) {
		if c.At(carID, m.Doc) == 0 {
			t.Fatalf("VSM retrieved doc %d without the literal term", m.Doc)
		}
	}
}

func TestTextFoldInNewDocument(t *testing.T) {
	pipe, c, index, _ := buildTextIndex(t)
	vec := pipe.TermDocMatrix([]string{"the mechanic rebuilt the engine and tested the brakes on the vehicle"}, corpus.CountWeighting).Col(0)
	// The pipeline may have grown the vocabulary; truncate to the indexed
	// universe (unseen terms cannot contribute to fold-in by definition).
	vec = vec[:c.Rows()]
	id, err := index.AppendDocument(vec)
	if err != nil {
		t.Fatal(err)
	}
	res := index.SearchProjected(index.DocVector(id), 4)
	labels := ir.SampleLabels()
	for _, m := range res {
		if m.Doc == id {
			continue
		}
		if labels[m.Doc] != 0 {
			t.Fatalf("folded-in vehicle doc nearest theme-%d doc %d", labels[m.Doc], m.Doc)
		}
	}
}

func TestTextTwoStepRetrieval(t *testing.T) {
	// The Section 5 pipeline on text: random projection + rank-2k LSI still
	// separates the themes.
	pipe := ir.NewPipeline()
	a := pipe.TermDocMatrix(ir.SampleTexts(), corpus.LogWeighting)
	ts, err := randproj.NewTwoStep(a, 3, min(40, a.Rows()), randproj.TwoStepOptions{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	q := textQuery(t, pipe, a.Rows(), "telescope stars")
	labels := ir.SampleLabels()
	hits := ts.Search(q, 5)
	wrong := 0
	for _, m := range hits {
		if labels[m.Doc] != 1 {
			wrong++
		}
	}
	if wrong > 1 {
		t.Fatalf("two-step top-5 for astronomy query has %d off-theme docs", wrong)
	}
}

func TestTextGraphDiscovery(t *testing.T) {
	// Section 6 on text: the document Gram graph of the sample corpus has
	// the three themes as discoverable high-conductance subgraphs.
	pipe := ir.NewPipeline()
	a := pipe.TermDocMatrix(ir.SampleTexts(), corpus.LogWeighting)
	g, err := graphmodel.FromSimilarity(lsi.GramFromColumns(a))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := graphmodel.DiscoverTopics(g, 3, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	if acc := graphmodel.ClusterAccuracy(pred, ir.SampleLabels()); acc < 0.85 {
		t.Fatalf("text graph discovery accuracy %v", acc)
	}
}

func TestTextRelatedTerms(t *testing.T) {
	// Term-space structure: the nearest terms to "car" in the LSI term
	// space should include the vehicle vocabulary, with "automobile" among
	// them despite zero literal co-occurrence in any shared document...
	// (they do co-occur with the same context words).
	pipe, c, index, _ := buildTextIndex(t)
	carID, ok := pipe.Vocab.Lookup(ir.Stem("car"))
	if !ok {
		t.Fatal("car not in vocabulary")
	}
	autoID, ok := pipe.Vocab.Lookup(ir.Stem("automobile"))
	if !ok {
		t.Fatal("automobile not in vocabulary")
	}
	_ = c
	related := index.RelatedTerms(carID, 0) // full ranking
	var autoScore float64
	autoRank := -1
	for rank, m := range related {
		if m.Term == autoID {
			autoScore = m.Score
			autoRank = rank
		}
	}
	if autoRank < 0 {
		t.Fatal("automobile missing from the related-term ranking")
	}
	// In a rank-3 space every same-theme term is nearly identical, so exact
	// rank is a tie-break; the substantive claims are (1) car–automobile
	// similarity is high in absolute terms and (2) it dominates any
	// cross-theme term.
	if autoScore < 0.9 {
		t.Fatalf("car–automobile LSI similarity %v", autoScore)
	}
	galaxyID, ok := pipe.Vocab.Lookup(ir.Stem("galaxy"))
	if !ok {
		t.Fatal("galaxy not in vocabulary")
	}
	for _, m := range related {
		if m.Term == galaxyID && m.Score > autoScore {
			t.Fatalf("cross-theme term galaxy (%v) outranks automobile (%v)", m.Score, autoScore)
		}
	}
}
