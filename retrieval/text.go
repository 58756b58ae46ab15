package retrieval

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/corpus"
	"repro/internal/idtable"
	"repro/internal/ir"
	"repro/internal/par"
	"repro/internal/segment"
	"repro/internal/sparse"
)

// textLayer is what every Retriever here shares in front of its numeric
// backend: the vocabulary, weighting, pipeline flags and document IDs that
// turn query text into the sparse term-space vector the backend scores,
// and its hits back into IDs. Index and VSM embed it.
type textLayer struct {
	vocab           *ir.Vocabulary // nil only for v1 files loaded without text config
	vocabBytes      int64          // the vocabulary's share of Stats.MemoryBytes
	weighting       Weighting
	removeStopwords bool
	stemming        bool
	docIDs          idtable.Table
}

// buildText is the preprocessing Build and BuildVSM share: documents →
// pipeline → weighted term-document matrix (terms are rows), plus the
// text layer that prepares queries the same way.
func buildText(docs []Document, cfg config) (textLayer, *sparse.CSR, error) {
	if len(docs) == 0 {
		return textLayer{}, nil, fmt.Errorf("%w: no documents", ErrEmptyCorpus)
	}
	if cfg.workers > 0 {
		par.SetMaxProcs(cfg.workers)
	}
	cw, err := cfg.weighting.toCorpus()
	if err != nil {
		return textLayer{}, nil, err
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
	c := pipe.ProcessAll(texts)
	if c.NumTerms == 0 {
		return textLayer{}, nil, fmt.Errorf("%w: every token was removed by preprocessing", ErrEmptyCorpus)
	}
	text := textLayer{
		weighting:       cfg.weighting,
		removeStopwords: cfg.removeStopwords,
		stemming:        cfg.stemming,
		docIDs:          idtable.Of(ids),
	}
	text.setVocab(pipe.Vocab)
	return text, corpus.TermDocMatrix(c, cw), nil
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
	st := Stats{
		Backend:     backend,
		Weighting:   t.weighting.String(),
		TextQueries: t.vocab != nil,
		Ready:       true,
	}
	if t.vocab != nil {
		st.VocabSize = t.vocab.Size()
	}
	st.MemoryBytes = t.vocabBytes + t.docIDs.Bytes()
	return st
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
	counts := make(map[int]float64)
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
	weights = make([]float64, len(terms))
	for i, id := range terms {
		switch t.weighting {
		case WeightingBinary:
			weights[i] = 1
		case WeightingLog:
			weights[i] = 1 + math.Log(counts[id])
		default: // count; tf-idf queries use raw counts (df is a corpus statistic)
			weights[i] = counts[id]
		}
	}
	return terms, weights, known
}

// textQuery preprocesses query text into the validated sparse query
// value, failing the way every text entry point fails: on a done
// context, an index without a vocabulary, or a query none of whose
// terms the vocabulary knows.
func (t *textLayer) textQuery(ctx context.Context, query string) (segment.Query, error) {
	if err := ctx.Err(); err != nil {
		return segment.Query{}, err
	}
	if t.vocab == nil {
		return segment.Query{}, ErrNoVocabulary
	}
	terms, weights, known := t.querySparse(query)
	if known == 0 {
		return segment.Query{}, fmt.Errorf("%w: %q", ErrNoQueryTerms, query)
	}
	return segment.Query{Terms: terms, Weights: weights}, nil
}
