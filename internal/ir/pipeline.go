package ir

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/corpus"
	"repro/internal/par"
)

// Vocabulary assigns stable integer IDs to terms in order of first
// appearance.
type Vocabulary struct {
	ids   map[string]int
	terms []string
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{ids: map[string]int{}}
}

// NewVocabularyFromTerms rebuilds a vocabulary from a term list in ID order
// (the inverse of Terms). It returns an error on duplicate terms, which
// would make term→ID lookups ambiguous.
func NewVocabularyFromTerms(terms []string) (*Vocabulary, error) {
	v := &Vocabulary{ids: make(map[string]int, len(terms)), terms: append([]string(nil), terms...)}
	for id, t := range v.terms {
		if prev, ok := v.ids[t]; ok {
			return nil, fmt.Errorf("ir: duplicate term %q at IDs %d and %d", t, prev, id)
		}
		v.ids[t] = id
	}
	return v, nil
}

// Terms returns the terms in ID order (a copy; the vocabulary is not
// affected by mutations of the result).
func (v *Vocabulary) Terms() []string {
	return append([]string(nil), v.terms...)
}

// IDOf returns the ID of a term, adding it if unseen.
func (v *Vocabulary) IDOf(term string) int {
	if id, ok := v.ids[term]; ok {
		return id
	}
	// Tokens are sliced out of document texts; a vocabulary that kept
	// them would pin every text a term first appeared in.
	term = strings.Clone(term)
	id := len(v.terms)
	v.ids[term] = id
	v.terms = append(v.terms, term)
	return id
}

// Lookup returns the ID of a term and whether it is known.
func (v *Vocabulary) Lookup(term string) (int, bool) {
	id, ok := v.ids[term]
	return id, ok
}

// Term returns the term with the given ID.
func (v *Vocabulary) Term(id int) string {
	if id < 0 || id >= len(v.terms) {
		panic(fmt.Sprintf("ir: term ID %d out of range [0,%d)", id, len(v.terms)))
	}
	return v.terms[id]
}

// Size returns the number of distinct terms.
func (v *Vocabulary) Size() int { return len(v.terms) }

// Pipeline converts raw text into corpus documents: tokenize, optionally
// drop stopwords, optionally stem, then map terms to vocabulary IDs.
type Pipeline struct {
	// RemoveStopwords drops tokens in the default English stopword list
	// (before stemming).
	RemoveStopwords bool
	// Stemming applies the Porter stemmer to each surviving token.
	Stemming bool
	// Vocab accumulates term IDs across every document processed by this
	// pipeline; nil means a fresh vocabulary is allocated on first use.
	Vocab *Vocabulary
}

// NewPipeline returns a pipeline with stopword removal and stemming on.
func NewPipeline() *Pipeline {
	return &Pipeline{RemoveStopwords: true, Stemming: true, Vocab: NewVocabulary()}
}

// Terms runs the token-level stages on a text and returns the processed
// term strings (after stopword removal and stemming, before ID mapping).
func (p *Pipeline) Terms(text string) []string {
	if out := p.appendTerms(nil, text); len(out) > 0 {
		return out
	}
	return nil
}

// appendTerms appends Terms(text) to dst, filtering the tokens in place.
func (p *Pipeline) appendTerms(dst []string, text string) []string {
	n := len(dst)
	dst = appendTokens(dst, text)
	out := dst[:n]
	for _, tok := range dst[n:] {
		if p.RemoveStopwords && IsStopword(tok) {
			continue
		}
		if p.Stemming {
			tok = Stem(tok)
		}
		if tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

// Process converts one text into a corpus.Document with the given ID,
// growing the shared vocabulary as needed. A document may come out empty
// (all tokens stopworded away); that is not an error.
func (p *Pipeline) Process(id int, text string) corpus.Document {
	d := p.ProcessAll([]string{text}).Docs[0]
	d.ID = id
	return d
}

// ProcessAll converts a batch of texts into a corpus over the pipeline's
// shared vocabulary: the Documents a Process loop over texts would return
// and the vocabulary it would leave, for every par.MaxProcs.
//
// The texts are cut into chunks that are tokenized and counted in
// parallel, each against a vocabulary of its own that numbers terms in
// order of first appearance within the chunk. Interning those
// vocabularies serially, chunk by chunk, gives every term the ID the
// serial loop would: a term new to the pipeline in chunk c first appears
// there, and the chunk's new terms are met in the order the chunk lists
// them. A second parallel pass rewrites chunk-local IDs as global ones
// and sorts each document.
func (p *Pipeline) ProcessAll(texts []string) *corpus.Corpus {
	if p.Vocab == nil {
		p.Vocab = NewVocabulary()
	}
	chunks := par.MapChunks(len(texts), par.GrainFor(1<<10), func(lo, hi int) *chunkCounts {
		return p.countChunk(texts[lo:hi], lo)
	})
	for _, c := range chunks {
		c.global = make([]int, len(c.terms))
		for l, term := range c.terms {
			c.global[l] = p.Vocab.IDOf(term)
		}
	}
	docs := make([]corpus.Document, len(texts))
	par.For(len(chunks), 1, func(lo, hi int) {
		for _, c := range chunks[lo:hi] {
			c.fill(docs)
		}
	})
	return &corpus.Corpus{NumTerms: p.Vocab.Size(), Docs: docs}
}

// chunkCounts is what ProcessAll's first pass learns about a run of
// consecutive texts.
type chunkCounts struct {
	lo     int      // index of the first text
	terms  []string // chunk-local vocabulary, in order of first appearance
	global []int    // pipeline vocabulary ID of each local term
	// The documents back to back: the distinct local term IDs of each in
	// order of first appearance, their counts, and where each document ends.
	ids, counts []int32
	ends        []int
}

func (p *Pipeline) countChunk(texts []string, lo int) *chunkCounts {
	c := &chunkCounts{lo: lo, ends: make([]int, len(texts))}
	local := map[string]int32{}
	var (
		toks []string // the current text's terms
		slot []int32  // per local term: 1 + its offset in the current document, 0 if absent
	)
	for d, text := range texts {
		start := len(c.ids)
		toks = p.appendTerms(toks[:0], text)
		for _, tok := range toks {
			l, ok := local[tok]
			if !ok {
				l = int32(len(c.terms))
				local[tok] = l
				c.terms = append(c.terms, tok)
				slot = append(slot, 0)
			}
			if slot[l] == 0 {
				c.ids = append(c.ids, l)
				c.counts = append(c.counts, 0)
				slot[l] = int32(len(c.ids) - start)
			}
			c.counts[start+int(slot[l])-1]++
		}
		for _, l := range c.ids[start:] {
			slot[l] = 0
		}
		c.ends[d] = len(c.ids)
	}
	return c
}

// fill writes the chunk's documents into docs, terms ascending by global
// ID. The documents share one backing array, each capped to its own part.
func (c *chunkCounts) fill(docs []corpus.Document) {
	n := len(c.ids)
	slab := make([]int, 2*n)
	doc := termCounts{}
	start := 0
	for d, end := range c.ends {
		doc.terms, doc.counts = slab[start:end:end], slab[n+start:n+end:n+end]
		for i := range doc.terms {
			doc.terms[i] = c.global[c.ids[start+i]]
			doc.counts[i] = int(c.counts[start+i])
		}
		sort.Sort(&doc)
		docs[c.lo+d] = corpus.Document{ID: c.lo + d, Terms: doc.terms, Counts: doc.counts}
		start = end
	}
}

// termCounts sorts a document's parallel term and count slices by term.
type termCounts struct{ terms, counts []int }

func (t *termCounts) Len() int           { return len(t.terms) }
func (t *termCounts) Less(i, j int) bool { return t.terms[i] < t.terms[j] }
func (t *termCounts) Swap(i, j int) {
	t.terms[i], t.terms[j] = t.terms[j], t.terms[i]
	t.counts[i], t.counts[j] = t.counts[j], t.counts[i]
}
