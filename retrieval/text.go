package retrieval

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/idtable"
	"repro/internal/ir"
	"repro/internal/lsi"
	"repro/internal/par"
	"repro/internal/segment"
	"repro/internal/sparse"
)

// textLayer is what every Retriever here shares in front of its numeric
// backend: the vocabulary, weighting, pipeline flags and document IDs that
// turn query text into the sparse term-space vector the backend scores,
// and its hits back into IDs. Index and VSM embed it.
type textLayer struct {
	vocab           *ir.Vocabulary
	vocabBytes      int64 // the vocabulary's share of Stats.MemoryBytes
	weighting       Weighting
	removeStopwords bool
	stemming        bool
	docIDs          idtable.Table
}

// buildText is the preprocessing Build and BuildVSM share: documents →
// pipeline → weighted term-document matrix (terms are rows), in one
// parallel pass over the texts (ir.Pipeline.TermDocMatrix), plus the
// text layer that prepares queries the same way.
func buildText(docs []Document, cfg config) (textLayer, *sparse.CSR, error) {
	if len(docs) == 0 {
		return textLayer{}, nil, fmt.Errorf("%w: no documents", ErrEmptyCorpus)
	}
	if cfg.workers > 0 {
		par.SetMaxProcs(cfg.workers)
	}
	if cfg.weighting < WeightingCount || cfg.weighting > WeightingTFIDF {
		return textLayer{}, nil, fmt.Errorf("retrieval: unknown weighting %d", int(cfg.weighting))
	}
	texts := make([]string, len(docs))
	ids := make([]string, len(docs))
	for i, d := range docs {
		texts[i] = d.Text
		ids[i] = d.ID
		if ids[i] == "" {
			ids[i] = fmt.Sprintf("doc-%d", i)
		}
	}
	pipe := &ir.Pipeline{
		RemoveStopwords: cfg.removeStopwords,
		Stemming:        cfg.stemming,
		Vocab:           ir.NewVocabulary(),
	}
	a := pipe.TermDocMatrix(texts, cfg.weighting)
	if a.Rows() == 0 {
		return textLayer{}, nil, fmt.Errorf("%w: every token was removed by preprocessing", ErrEmptyCorpus)
	}
	text := textLayer{
		weighting:       cfg.weighting,
		removeStopwords: cfg.removeStopwords,
		stemming:        cfg.stemming,
		docIDs:          idtable.Of(ids),
	}
	text.setVocab(pipe.Vocab)
	return text, a, nil
}

// setVocab installs the vocabulary and sizes its strings once: the
// vocabulary is fixed at build, and Stats runs on every probe.
func (t *textLayer) setVocab(v *ir.Vocabulary) {
	t.vocab, t.vocabBytes = v, 0
	for id := 0; id < v.Size(); id++ {
		t.vocabBytes += int64(len(v.Term(id))) + 16
	}
}

// stats fills the text layer's part of Stats: the weighting, the
// vocabulary, and the memory its strings and the document IDs take.
func (t *textLayer) stats(backend string) Stats {
	return Stats{
		Backend:     backend,
		Weighting:   t.weighting.String(),
		VocabSize:   t.vocab.Size(),
		MemoryBytes: t.vocabBytes + t.docIDs.Bytes(),
		Ready:       true,
	}
}

// textLayerOf is the text layer a saved index carries, checked against
// the index's numTerms terms.
func textLayerOf(m *lsi.Meta, numTerms int) (textLayer, error) {
	if len(m.Vocab) != numTerms {
		return textLayer{}, fmt.Errorf("vocabulary has %d terms, index has %d", len(m.Vocab), numTerms)
	}
	w, err := ParseWeighting(m.WeightingName)
	if err != nil {
		return textLayer{}, err
	}
	vocab, err := ir.NewVocabularyFromTerms(m.Vocab)
	if err != nil {
		return textLayer{}, err
	}
	t := textLayer{weighting: w, removeStopwords: m.RemoveStopwords, stemming: m.Stemming, docIDs: idtable.Of(m.DocIDs)}
	t.setVocab(vocab)
	return t, nil
}

// meta is the text layer as internal/lsi stores it, without document IDs.
func (t *textLayer) meta() lsi.Meta {
	return lsi.Meta{
		Vocab: t.vocab.Terms(), WeightingName: t.weighting.String(),
		RemoveStopwords: t.removeStopwords, Stemming: t.stemming,
	}
}

// docID returns the external identifier of document doc (build order).
func (t *textLayer) docID(doc int) string {
	if doc >= 0 && doc < t.docIDs.Len() {
		return t.docIDs.At(doc)
	}
	return fmt.Sprintf("doc-%d", doc)
}

// querySparse turns query text into a sparse term-space vector — weights
// over the distinct in-vocabulary term IDs, sorted ascending — using the
// index's own pipeline, vocabulary, and weighting. It reports how many
// query tokens hit the vocabulary. The sparse form is what both backend
// hot paths consume: a text query never materializes a vocabulary-length
// vector, and the sorted order makes the backends' accumulation match
// the dense reference bitwise.
func (t *textLayer) querySparse(query string) (terms []int, weights []float64, known int) {
	pipe := &ir.Pipeline{RemoveStopwords: t.removeStopwords, Stemming: t.stemming}
	counts := make(map[int]int)
	for _, term := range pipe.Terms(query) {
		if id, ok := t.vocab.Lookup(term); ok {
			counts[id]++
			known++
		}
	}
	if known == 0 {
		return nil, nil, 0
	}
	terms = make([]int, 0, len(counts))
	for id := range counts {
		terms = append(terms, id)
	}
	sort.Ints(terms)
	// tf-idf queries use raw counts (df is a corpus statistic).
	w := t.weighting
	if w == WeightingTFIDF {
		w = WeightingCount
	}
	weights = make([]float64, len(terms))
	for i, id := range terms {
		weights[i] = w.Entry(counts[id], 1, 1)
	}
	return terms, weights, known
}

// textQuery preprocesses query text into the validated sparse query
// value, failing the way every text entry point fails: on a done
// context, or a query none of whose terms the vocabulary knows.
func (t *textLayer) textQuery(ctx context.Context, query string) (segment.Query, error) {
	if err := ctx.Err(); err != nil {
		return segment.Query{}, err
	}
	terms, weights, known := t.querySparse(query)
	if known == 0 {
		return segment.Query{}, fmt.Errorf("%w: %q", ErrNoQueryTerms, query)
	}
	return segment.Query{Terms: terms, Weights: weights}, nil
}

// batchChunk bounds how many texts a batch runs between context checks:
// small enough that cancellation is honored promptly, large enough that
// the workers stay saturated.
const batchChunk = 64

// fanOut is every backend's batch of texts: one(i) answers text i, out[i]
// in text order, across par workers (a scan may fan out again inside;
// nesting is safe and never changes results), with ctx checked before
// each chunk of batchChunk texts and after the last.
func fanOut(ctx context.Context, n, grain int, one func(i int) []Result) ([][]Result, error) {
	out := make([][]Result, n)
	for lo := 0; lo < n; lo += batchChunk {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		par.For(min(batchChunk, n-lo), grain, func(a, b int) {
			for i := lo + a; i < lo+b; i++ {
				out[i] = one(i)
			}
		})
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
