package ir

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unicode"

	"repro/internal/corpus"
	"repro/internal/par"
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

// processReference is Process as first written — one document, one map,
// straight into the shared vocabulary: the serial definition ProcessAll's
// chunked passes (and Process, now a one-text ProcessAll) must reproduce.
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

func TestProcessAllMatchesSerial(t *testing.T) {
	texts := processAllCorpus()
	for _, cfg := range []Pipeline{
		{RemoveStopwords: true, Stemming: true},
		{RemoveStopwords: false, Stemming: false},
		{RemoveStopwords: true, Stemming: false},
	} {
		serial := cfg
		serial.Vocab = NewVocabulary()
		serial.Vocab.IDOf("preloaded") // ProcessAll must extend a vocabulary, not replace it
		want := &corpus.Corpus{Docs: make([]corpus.Document, len(texts))}
		oneByOne := cfg // Process is a one-text ProcessAll: hold it to the same reference
		oneByOne.Vocab = NewVocabulary()
		oneByOne.Vocab.IDOf("preloaded")
		for i, text := range texts {
			want.Docs[i] = processReference(&serial, i, text)
			if got := oneByOne.Process(i, text); !reflect.DeepEqual(got, want.Docs[i]) {
				t.Fatalf("%+v: Process(%d, %q) = %+v, want %+v", cfg, i, text, got, want.Docs[i])
			}
		}
		want.NumTerms = serial.Vocab.Size()
		if !reflect.DeepEqual(oneByOne.Vocab.Terms(), serial.Vocab.Terms()) {
			t.Fatalf("%+v: a Process loop's vocabulary differs from the reference's", cfg)
		}
		for _, procs := range []int{1, 2, 8} {
			p := cfg
			p.Vocab = NewVocabulary()
			p.Vocab.IDOf("preloaded")
			old := par.SetMaxProcs(procs)
			got := p.ProcessAll(texts)
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
	if c := nilVocab.ProcessAll(nil); c.NumTerms != 0 || len(c.Docs) != 0 || nilVocab.Vocab == nil {
		t.Fatalf("ProcessAll(nil) = %+v, vocab %v", c, nilVocab.Vocab)
	}
}

// BenchmarkProcessAll is retrieval.Build's text front end at the
// repository benchmark's scale: 51,200 documents of 50–100 lower-case
// ASCII tokens over a 1,600-term vocabulary, stopwords and stemming off
// as the benchmark builds.
func BenchmarkProcessAll(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	vocab := make([]string, 1600)
	for i := range vocab {
		vocab[i] = "x" + strings.Map(func(r rune) rune { return 'a' + r - '0' }, fmt.Sprint(i))
	}
	texts := make([]string, 51200)
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &Pipeline{}
		if c := p.ProcessAll(texts); c.NumTerms != len(vocab) {
			b.Fatalf("NumTerms = %d", c.NumTerms)
		}
	}
}
