package ir

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/corpus"
	"repro/internal/par"
	"repro/internal/sparse"
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
// (the inverse of Terms), keeping terms, which the caller must not modify
// afterwards. It returns an error on duplicate terms, which would make
// term→ID lookups ambiguous.
func NewVocabularyFromTerms(terms []string) (*Vocabulary, error) {
	v := &Vocabulary{ids: make(map[string]int, len(terms)), terms: terms}
	for id, t := range v.terms {
		if prev, ok := v.ids[t]; ok {
			return nil, fmt.Errorf("ir: duplicate term %q at IDs %d and %d", t, prev, id)
		}
		v.ids[t] = id
	}
	return v, nil
}

// Terms returns the terms in ID order: the vocabulary's own slice, so an
// index's text layer and its vocabulary hold the terms once. It is
// read-only; a term the vocabulary adds later is not in it.
func (v *Vocabulary) Terms() []string {
	return v.terms[:len(v.terms):len(v.terms)]
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
	if dst = appendTokens(dst, text); !p.RemoveStopwords && !p.Stemming {
		return dst // no token is empty
	}
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

// TermDocMatrix runs the pipeline over texts, growing its vocabulary, and
// returns their term-document matrix weighted by w (a row per vocabulary
// term, a column per text): for every par.MaxProcs, bitwise
// corpus.TermDocMatrix of the documents a serial loop would count.
//
// The texts are cut into chunks that are tokenized and counted in
// parallel, each against a vocabulary of its own that numbers terms in
// order of first appearance within the chunk. Interning those
// vocabularies serially, chunk by chunk, gives every term the ID a loop
// over the texts would: a term new to the pipeline in chunk c first
// appears there, and the chunk's new terms are met in the order the chunk
// lists them. The chunks' document frequencies fix each row's length and
// the run of it each chunk fills, and a second parallel pass scatters the
// documents into their rows in order, so columns ascend with no sort. A
// row w weights zero (TF-IDF's term in every text) stays empty.
func (p *Pipeline) TermDocMatrix(texts []string, w corpus.Weighting) *sparse.CSR {
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
	n, m := p.Vocab.Size(), len(texts)
	df := make([]int, n)
	for _, c := range chunks {
		for l, t := range c.global {
			df[t] += int(c.df[l])
		}
	}
	rowPtr := make([]int, n+1)
	for t, d := range df {
		if d > 0 && w.Entry(1, d, m) == 0 {
			df[t] = 0 // a zero-weighted row: scatter skips it
		}
		rowPtr[t+1] = rowPtr[t] + df[t]
	}
	next := slices.Clone(rowPtr[:n])
	for _, c := range chunks {
		c.next = make([]int, len(c.global))
		for l, t := range c.global {
			c.next[l] = next[t]
			next[t] += int(c.df[l])
		}
	}
	colIdx, vals := make([]int, rowPtr[n]), make([]float64, rowPtr[n])
	par.For(len(chunks), 1, func(lo, hi int) {
		for _, c := range chunks[lo:hi] {
			c.scatter(colIdx, vals, w, df, m)
		}
	})
	return sparse.NewCSR(m, rowPtr, colIdx, vals)
}

// chunkCounts is what TermDocMatrix's first pass learns about a run of
// consecutive texts.
type chunkCounts struct {
	lo    int      // index of the first text
	terms []string // chunk-local vocabulary, in order of first appearance
	df    []int32  // per local term: the chunk's documents that hold it
	// The documents back to back: the distinct local term IDs of each in
	// order of first appearance, their counts, and where each document ends.
	ids, counts []int32
	ends        []int
	// Set between the passes, per local term: its pipeline vocabulary ID
	// and the next slot the chunk fills in its row.
	global, next []int
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
				// A copy, compact for the lookups that compare it.
				tok = strings.Clone(tok)
				l = int32(len(c.terms))
				local[tok] = l
				c.terms = append(c.terms, tok)
				c.df = append(c.df, 0)
				slot = append(slot, 0)
			}
			if slot[l] == 0 {
				c.ids = append(c.ids, l)
				c.counts = append(c.counts, 0)
				c.df[l]++
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

// scatter writes the chunk's entries into their rows' slots, weighted by
// w over m documents with document frequencies df.
func (c *chunkCounts) scatter(colIdx []int, vals []float64, w corpus.Weighting, df []int, m int) {
	start := 0
	for d, end := range c.ends {
		for i := start; i < end; i++ {
			if l := c.ids[i]; df[c.global[l]] > 0 {
				k := c.next[l]
				c.next[l]++
				colIdx[k], vals[k] = c.lo+d, w.Entry(int(c.counts[i]), df[c.global[l]], m)
			}
		}
		start = end
	}
}
