package ir

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

// Property: tokens are non-empty and consist only of letters that are
// fixed points of ToLower (some scripts' uppercase letters have no
// lowercase mapping, e.g. mathematical capitals, so "not IsUpper" would be
// too strict).
func TestTokenizePropertyLettersOnly(t *testing.T) {
	f := func(text string) bool {
		for _, tok := range Tokenize(text) {
			if tok == "" {
				return false
			}
			for _, r := range tok {
				if !unicode.IsLetter(r) || r != unicode.ToLower(r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(201))}); err != nil {
		t.Error(err)
	}
}

// Property: tokenizing the joined tokens is a fixed point.
func TestTokenizePropertyIdempotent(t *testing.T) {
	f := func(text string) bool {
		once := Tokenize(text)
		again := Tokenize(strings.Join(once, " "))
		if len(once) != len(again) {
			return false
		}
		for i := range once {
			if once[i] != again[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(202))}); err != nil {
		t.Error(err)
	}
}

// Property: the stemmer never panics and never grows a word by more than
// one character (the e-restoration in step 1b is the only lengthening
// rule, and it fires after a longer suffix was removed).
func TestStemPropertySafe(t *testing.T) {
	f := func(raw string) bool {
		// Feed it realistic input: a lowercase letter token.
		toks := Tokenize(raw)
		for _, tok := range toks {
			out := Stem(tok)
			if len(out) > len(tok) {
				return false
			}
			if out == "" && len(tok) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(203))}); err != nil {
		t.Error(err)
	}
}

// Property: pipeline documents have strictly ascending terms with positive
// counts summing to the processed token count.
func TestPipelinePropertyDocumentInvariants(t *testing.T) {
	p := NewPipeline()
	f := func(text string) bool {
		d := process(p, 0, text)
		want := len(p.Terms(text))
		got := 0
		prev := -1
		for i, term := range d.Terms {
			if term <= prev {
				return false
			}
			prev = term
			if d.Counts[i] < 1 {
				return false
			}
			got += d.Counts[i]
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(204))}); err != nil {
		t.Error(err)
	}
}

func BenchmarkStem(b *testing.B) {
	words := []string{
		"relational", "conditional", "probabilistic", "indexing",
		"decomposition", "retrieval", "conductance", "projections",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Stem(words[i%len(words)])
	}
}

func BenchmarkTokenize(b *testing.B) {
	text := strings.Repeat("Latent semantic indexing, a probabilistic analysis of spectral methods! ", 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Tokenize(text)
	}
}

func BenchmarkPipelineProcess(b *testing.B) {
	p := NewPipeline()
	text := strings.Repeat("the latent semantic indexing of documents retrieves synonymous terms across corpora ", 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		process(p, i, text)
	}
}
