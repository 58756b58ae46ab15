package experiments

// End-to-end integration tests: raw text → ir pipeline → term-document
// matrix → LSI / VSM / two-step / graph discovery, crossing every module
// boundary the way a downstream user would.

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/graphmodel"
	"repro/internal/ir"
	"repro/internal/lsi"
	"repro/internal/mat"
	"repro/internal/randproj"
	"repro/internal/sparse"
	"repro/internal/vsm"
)

// sampleCorpus is a small labeled plain-text corpus: three themes
// (vehicles, astronomy, cooking) with deliberate synonym variation inside
// each theme ("car" vs "automobile", "galaxy" vs "cosmos", "sauce" vs
// "gravy") so the LSI-vs-VSM comparisons of the paper's introduction can
// be exercised on text.
var sampleCorpus = []struct {
	theme int
	text  string
}{
	// Theme 0: vehicles. Even docs say "car", odd docs say "automobile".
	{0, "The car dealership sells used cars, and the mechanic inspects every engine before delivery."},
	{0, "An automobile dealership services automobile engines, brakes and transmissions for customers."},
	{0, "The car driver praised the mechanic after the engine repair and brake adjustment."},
	{0, "Automobile insurance covers engine damage, brake failure and collision repair costs."},
	{0, "A racing car needs a tuned engine, fresh tires and precise brakes to win."},
	{0, "The automobile factory assembles engines, fits brakes and paints each vehicle body."},
	{0, "Car maintenance includes engine oil changes, brake checks and tire rotation."},
	{0, "The automobile show displayed vintage engines and hand-built vehicle bodies."},
	// Theme 1: astronomy. Even docs say "galaxy", odd docs say "cosmos".
	{1, "Astronomers observed the galaxy through a telescope and charted its brightest stars."},
	{1, "The cosmos contains billions of stars, and telescopes reveal planets orbiting them."},
	{1, "A spiral galaxy rotates slowly while its stars drift around the luminous core."},
	{1, "Probes sent into the cosmos photograph planets, moons and distant stars."},
	{1, "The galaxy survey mapped stars and measured distances with orbital telescopes."},
	{1, "Radiation from the early cosmos still reaches telescopes as faint background light."},
	{1, "Star clusters within the galaxy form from collapsing clouds of gas."},
	{1, "The expanding cosmos carries stars and planets ever farther apart."},
	// Theme 2: cooking. Even docs say "sauce", odd docs say "gravy".
	{2, "The tomato sauce simmers with garlic, basil and olive oil in the pan."},
	{2, "A rich gravy needs butter, flour and slow stirring over gentle heat in the pan."},
	{2, "Pasta with garlic sauce tastes best with fresh basil and grated cheese."},
	{2, "Roast dinners pair with onion gravy, butter-soft potatoes and seasonal greens."},
	{2, "Reduce the sauce over heat until it coats the back of a spoon."},
	{2, "Whisk the gravy constantly so the flour thickens without lumps in the pan."},
	{2, "A splash of wine deepens the sauce before the garlic and basil go in."},
	{2, "Strain the gravy, season with pepper and serve it hot over the roast."},
}

// sampleTexts returns the texts of the sample corpus, in order.
func sampleTexts() []string {
	out := make([]string, len(sampleCorpus))
	for i, d := range sampleCorpus {
		out[i] = d.text
	}
	return out
}

// sampleLabels returns the theme labels of the sample corpus, in order.
func sampleLabels() []int {
	out := make([]int, len(sampleCorpus))
	for i, d := range sampleCorpus {
		out[i] = d.theme
	}
	return out
}

func buildTextIndex(t *testing.T) (*ir.Pipeline, *sparse.CSR, *lsi.Index, *vsm.Index) {
	t.Helper()
	pipe := &ir.Pipeline{RemoveStopwords: true, Stemming: true}
	a := pipe.TermDocMatrix(sampleTexts(), corpus.LogWeighting)
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
	labels := sampleLabels()
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
	labels := sampleLabels()

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
	var terms []int
	var weights []float64
	for term, w := range vec[:c.Rows()] {
		if w != 0 {
			terms, weights = append(terms, term), append(weights, w)
		}
	}
	ext, err := index.ExtendedSparse([][]int{terms}, [][]float64{weights})
	if err != nil {
		t.Fatal(err)
	}
	id := index.NumDocs()
	res := ext.AppendSearchProjected(nil, ext.DocVector(id), 4)
	labels := sampleLabels()
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
	pipe := &ir.Pipeline{RemoveStopwords: true, Stemming: true}
	a := pipe.TermDocMatrix(sampleTexts(), corpus.LogWeighting)
	ts, err := randproj.NewTwoStep(a, 3, min(40, a.Rows()), randproj.TwoStepOptions{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	intra, inter := lsi.PairAngles(lsi.GramFromRows(ts.DocVectors()), sampleLabels()).Summaries()
	if intra.Mean >= inter.Mean {
		t.Fatalf("two-step intratopic mean angle %v not below intertopic %v", intra.Mean, inter.Mean)
	}
}

func TestTextGraphDiscovery(t *testing.T) {
	// Section 6 on text: the document Gram graph of the sample corpus has
	// the three themes as discoverable high-conductance subgraphs.
	pipe := &ir.Pipeline{RemoveStopwords: true, Stemming: true}
	a := pipe.TermDocMatrix(sampleTexts(), corpus.LogWeighting)
	g, err := graphmodel.FromSimilarity(lsi.GramFromColumns(a))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := graphmodel.DiscoverTopics(g, 3, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	if acc := graphmodel.ClusterAccuracy(pred, sampleLabels()); acc < 0.85 {
		t.Fatalf("text graph discovery accuracy %v", acc)
	}
}

func TestTextRelatedTerms(t *testing.T) {
	// Term-space structure: "car" and "automobile" never share a document,
	// but they co-occur with the same context words, so in the LSI term
	// space (rows of Uₖ·Dₖ) they sit close, and closer than any
	// cross-theme term.
	pipe, _, index, _ := buildTextIndex(t)
	id := func(term string) int {
		id, ok := pipe.Vocab.Lookup(ir.Stem(term))
		if !ok {
			t.Fatalf("%s not in vocabulary", term)
		}
		return id
	}
	termVec := func(i int) []float64 {
		v := slices.Clone(index.Basis().Row(i))
		for j, s := range index.SingularValues() {
			v[j] *= s
		}
		return v
	}
	car := termVec(id("car"))
	autoScore := mat.Cosine(car, termVec(id("automobile")))
	// In a rank-3 space every same-theme term is nearly identical, so the
	// substantive claims are (1) car–automobile similarity is high in
	// absolute terms and (2) it dominates any cross-theme term.
	if autoScore < 0.9 {
		t.Fatalf("car–automobile LSI similarity %v", autoScore)
	}
	if galaxy := mat.Cosine(car, termVec(id("galaxy"))); galaxy > autoScore {
		t.Fatalf("cross-theme term galaxy (%v) outranks automobile (%v)", galaxy, autoScore)
	}
}
