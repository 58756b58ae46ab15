package ir

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"unicode"

	"repro/internal/corpus"
	"repro/internal/par"
	"repro/internal/sparse"
)

// tokenizeReference is Tokenize as first written, one rune at a time: the
// specification appendTokens' fast path must reproduce.
func tokenizeReference(text string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for _, r := range text {
		if unicode.IsLetter(r) {
			b.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return tokens
}

// awkwardTexts exercise every way out of the tokenizer's fast path: upper
// case at the start, middle and end of a token, digits and punctuation,
// letters that lower to a different length (İ), to ASCII (K, the Kelvin
// sign) or not at all (ß), non-letter runes above 0x80, invalid UTF-8,
// and texts with nothing in them.
var awkwardTexts = []string{
	"",
	" ",
	"the of and",
	"plain lower case words only",
	"The QUICK  brown-fox, jumps 42 times! Ünïcode läuft.",
	"endsUpperX midUPPERcase Xstart x",
	"É ß İ İstanbul straße ÉCOLE école",
	"Kelvin 10×faster a×b naïve—dash",
	"bad\xffutf8 \xc3 tail\xc3",
	"\xe2\x82 truncated\xe2\x82",
	"x1y2z3 a_b c.d e'f",
	"ǅ ǆ ῼ ǈungla", // title-case letters
	"日本語 テキスト and ascii",
	"running runs ran easily fairly",
	"trailing space ",
	"z",
}

func FuzzTokenize(f *testing.F) {
	for _, s := range awkwardTexts {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		got, want := Tokenize(text), tokenizeReference(text)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q, rune loop gives %q", text, got, want)
		}
		// Appending after existing tokens must not disturb them.
		if again := appendTokens([]string{"kept"}, text); !reflect.DeepEqual(again[1:], append([]string{}, want...)) || again[0] != "kept" {
			t.Fatalf("appendTokens(%q) onto a non-empty slice = %q", text, again)
		}
	})
}

// processAllCorpus is a batch whose chunks (at every worker count below)
// each bring new terms, repeat old ones, and contain documents that come
// out empty.
func processAllCorpus() []string {
	rng := rand.New(rand.NewSource(41))
	words := strings.Fields("car cars driving engine the of Motorway GALAXY star stars orbit orbiting " +
		"straße École İstanbul naïve running easily and is was")
	var texts []string
	for i := 0; i < 1500; i++ {
		switch {
		case i%97 == 0:
			texts = append(texts, awkwardTexts[(i/97)%len(awkwardTexts)])
			continue
		case i%53 == 0:
			texts = append(texts, "the of and is was") // all stopwords
			continue
		}
		var b strings.Builder
		for n := 1 + rng.Intn(30); n > 0; n-- {
			b.WriteString(words[rng.Intn(len(words))])
			b.WriteString([]string{" ", ", ", " 7 ", "-"}[rng.Intn(4)])
		}
		// A term that first appears here, deep into the batch.
		fmt.Fprintf(&b, "novel%s", strings.Repeat("x", i%40))
		texts = append(texts, b.String())
	}
	return texts
}

// processReference is the pipeline's one-text processing as first
// written — one document, one map, straight into the shared vocabulary:
// the serial definition TermDocMatrix's chunked passes must reproduce.
func processReference(p *Pipeline, id int, text string) corpus.Document {
	counts := map[int]int{}
	for _, term := range p.Terms(text) {
		counts[p.Vocab.IDOf(term)]++
	}
	terms := make([]int, 0, len(counts))
	for t := range counts {
		terms = append(terms, t)
	}
	sort.Ints(terms)
	cs := make([]int, len(terms))
	for i, t := range terms {
		cs[i] = counts[t]
	}
	return corpus.Document{ID: id, Terms: terms, Counts: cs}
}

// processAll is the corpus a batch of texts makes, read off the columns of
// the pipeline's count-weighted TermDocMatrix: each document's terms
// ascending, with their counts, the documents sharing two slabs.
func processAll(p *Pipeline, texts []string) *corpus.Corpus {
	a := p.TermDocMatrix(texts, corpus.CountWeighting).T()
	terms, counts := make([]int, a.NNZ()), make([]int, a.NNZ())
	docs := make([]corpus.Document, len(texts))
	k := 0
	for j := range docs {
		start := k
		a.RowIter(j, func(t int, v float64) {
			terms[k], counts[k] = t, int(v)
			k++
		})
		docs[j] = corpus.Document{ID: j, Terms: terms[start:k:k], Counts: counts[start:k:k]}
	}
	return &corpus.Corpus{NumTerms: a.Cols(), Docs: docs}
}

// process is processAll on one text, as document id.
func process(p *Pipeline, id int, text string) corpus.Document {
	d := processAll(p, []string{text}).Docs[0]
	d.ID = id
	return d
}

// termCount is the count of term in d (0 if absent): d.Terms is sorted.
func termCount(d corpus.Document, term int) int {
	if i, ok := slices.BinarySearch(d.Terms, term); ok {
		return d.Counts[i]
	}
	return 0
}

func TestProcessAllMatchesSerial(t *testing.T) {
	texts := processAllCorpus()
	for _, cfg := range []Pipeline{
		{RemoveStopwords: true, Stemming: true},
		{RemoveStopwords: false, Stemming: false},
		{RemoveStopwords: true, Stemming: false},
	} {
		serial := cfg
		serial.Vocab = NewVocabulary()
		serial.Vocab.IDOf("preloaded") // TermDocMatrix must extend a vocabulary, not replace it
		want := &corpus.Corpus{Docs: make([]corpus.Document, len(texts))}
		oneByOne := cfg // one text at a time: held to the same reference
		oneByOne.Vocab = NewVocabulary()
		oneByOne.Vocab.IDOf("preloaded")
		for i, text := range texts {
			want.Docs[i] = processReference(&serial, i, text)
			if got := process(&oneByOne, i, text); !reflect.DeepEqual(got, want.Docs[i]) {
				t.Fatalf("%+v: text %d, %q, alone = %+v, want %+v", cfg, i, text, got, want.Docs[i])
			}
		}
		want.NumTerms = serial.Vocab.Size()
		if !reflect.DeepEqual(oneByOne.Vocab.Terms(), serial.Vocab.Terms()) {
			t.Fatalf("%+v: a one-text loop's vocabulary differs from the reference's", cfg)
		}
		for _, procs := range []int{1, 2, 8} {
			p := cfg
			p.Vocab = NewVocabulary()
			p.Vocab.IDOf("preloaded")
			old := par.SetMaxProcs(procs)
			got := processAll(&p, texts)
			par.SetMaxProcs(old)
			if !reflect.DeepEqual(p.Vocab.Terms(), serial.Vocab.Terms()) {
				t.Fatalf("%+v procs=%d: vocabulary order differs from the serial loop's", cfg, procs)
			}
			if got.NumTerms != want.NumTerms {
				t.Fatalf("%+v procs=%d: NumTerms = %d, want %d", cfg, procs, got.NumTerms, want.NumTerms)
			}
			for i := range want.Docs {
				if !reflect.DeepEqual(got.Docs[i], want.Docs[i]) {
					t.Fatalf("%+v procs=%d: doc %d (%q) = %+v, the serial loop gives %+v", cfg, procs, i, texts[i], got.Docs[i], want.Docs[i])
				}
			}
			// Documents share a backing array; growing one must not reach
			// into its neighbour.
			before := append([]int(nil), got.Docs[2].Terms...)
			_ = append(got.Docs[1].Terms, -1)
			_ = append(got.Docs[1].Counts, -1)
			if !reflect.DeepEqual(got.Docs[2].Terms, before) {
				t.Fatalf("%+v procs=%d: appending to one document's terms overwrote the next's", cfg, procs)
			}
		}
	}
	var nilVocab Pipeline
	if a := nilVocab.TermDocMatrix(nil, corpus.CountWeighting); a.Rows() != 0 || a.Cols() != 0 || nilVocab.Vocab == nil {
		t.Fatalf("TermDocMatrix(nil) is %dx%d, vocab %v", a.Rows(), a.Cols(), nilVocab.Vocab)
	}
}

// TestTermDocMatrixMatchesProcessAll holds the CSR front end to
// corpus.TermDocMatrix over the serial reference's documents (what
// ProcessAll returned before the front end went straight to the matrix),
// bit for bit,
// for every weighting at 1, 2 and 8 workers, on a pipeline that already
// knows a term no text holds (an empty row). The first batch has
// documents that come out empty; in the second a term is in every
// document, which TF-IDF weights zero and stores no entry for.
func TestTermDocMatrixMatchesProcessAll(t *testing.T) {
	every := processAllCorpus()[:600]
	for i := range every {
		every[i] += " every"
	}
	weightings := []corpus.Weighting{corpus.CountWeighting, corpus.BinaryWeighting, corpus.LogWeighting, corpus.TFIDFWeighting}
	for name, texts := range map[string][]string{"empty documents": processAllCorpus(), "a term in every document": every} {
		ref := Pipeline{RemoveStopwords: true, Stemming: true, Vocab: NewVocabulary()}
		ref.Vocab.IDOf("preloaded")
		c := &corpus.Corpus{Docs: make([]corpus.Document, len(texts))}
		for i, text := range texts {
			c.Docs[i] = processReference(&ref, i, text)
		}
		c.NumTerms = ref.Vocab.Size()
		for _, w := range weightings {
			want := corpus.TermDocMatrix(c, w)
			for _, procs := range []int{1, 2, 8} {
				p := Pipeline{RemoveStopwords: true, Stemming: true, Vocab: NewVocabulary()}
				p.Vocab.IDOf("preloaded")
				old := par.SetMaxProcs(procs)
				got := p.TermDocMatrix(texts, w)
				par.SetMaxProcs(old)
				if !reflect.DeepEqual(p.Vocab.Terms(), ref.Vocab.Terms()) {
					t.Fatalf("%s %v procs=%d: vocabulary differs from the serial loop's", name, w, procs)
				}
				if diff := csrDiff(got, want); diff != "" {
					t.Fatalf("%s %v procs=%d: %s", name, w, procs, diff)
				}
			}
		}
		if name == "a term in every document" {
			id, ok := ref.Vocab.Lookup(Stem("every"))
			if !ok {
				t.Fatal("the term in every document is not in the vocabulary")
			}
			n := 0
			corpus.TermDocMatrix(c, corpus.TFIDFWeighting).RowIter(id, func(int, float64) { n++ })
			if n != 0 {
				t.Fatalf("the term in every document has %d tf-idf entries", n)
			}
		}
	}
}

// csrDiff describes the first difference between a and b, entries
// compared by their bits, or returns "".
func csrDiff(a, b *sparse.CSR) string {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() || a.NNZ() != b.NNZ() {
		return fmt.Sprintf("%dx%d with %d entries, want %dx%d with %d", a.Rows(), a.Cols(), a.NNZ(), b.Rows(), b.Cols(), b.NNZ())
	}
	type entry struct {
		j    int
		bits uint64
	}
	row := func(m *sparse.CSR, i int) (es []entry) {
		m.RowIter(i, func(j int, v float64) { es = append(es, entry{j, math.Float64bits(v)}) })
		return es
	}
	for i := 0; i < a.Rows(); i++ {
		if ga, gb := row(a, i), row(b, i); !reflect.DeepEqual(ga, gb) {
			return fmt.Sprintf("row %d = %v, want %v", i, ga, gb)
		}
	}
	return ""
}

// ledgerTexts are texts of the repository benchmark's shape: 51,200
// documents of 50–100 lower-case ASCII tokens over a 1,600-term
// vocabulary, 25 terms a topic.
func ledgerTexts() (texts, vocab []string) {
	rng := rand.New(rand.NewSource(42))
	vocab = make([]string, 1600)
	for i := range vocab {
		vocab[i] = "x" + strings.Map(func(r rune) rune { return 'a' + r - '0' }, fmt.Sprint(i))
	}
	texts = make([]string, 51200)
	var sb strings.Builder
	for i := range texts {
		sb.Reset()
		topic := i % 64
		for n := 50 + rng.Intn(51); n > 0; n-- {
			sb.WriteString(vocab[topic*25+rng.Intn(25)])
			sb.WriteByte(' ')
		}
		texts[i] = sb.String()
	}
	return texts, vocab
}

// BenchmarkProcessAll is retrieval.Build's text front end on the
// ledger-shaped texts, stopwords and stemming off as the benchmark
// builds: straight to the count-weighted term-document matrix, the work
// ProcessAll and corpus.TermDocMatrix (BenchmarkTermDocMatrix) did
// between them before.
func BenchmarkProcessAll(b *testing.B) {
	texts, vocab := ledgerTexts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &Pipeline{}
		if a := p.TermDocMatrix(texts, corpus.CountWeighting); a.Rows() != len(vocab) {
			b.Fatalf("rows = %d", a.Rows())
		}
	}
}
