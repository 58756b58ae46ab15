package repro

// Tier-1 pin of the data the repository benchmark builds on: the corpus
// bench/ draws (the paper's pure ε-separable model at the benchmark's
// scale, 64 topics × 800 documents of 50–100 terms dealt round robin) and
// the term-document matrix retrieval.Build makes from bench's rendering
// of it. The hashes were recorded at fbf6b6e; a change to the generator,
// the text front end or the matrix assembly that moves one bit of either
// fails here before it shows as drift in the benchmark.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ir"
)

// ledgerCorpus is bench's corpus for a seed.
func ledgerCorpus(t testing.TB, seed int64) *corpus.Corpus {
	t.Helper()
	m, err := corpus.PureSeparableModel(corpus.SeparableConfig{NumTopics: 64, TermsPerTopic: 25, Epsilon: 0.1, MinLen: 50, MaxLen: 100})
	if err != nil {
		t.Fatal(err)
	}
	m.Sampler = &corpus.RoundRobinSampler{NumTopics: 64, MinLen: 50, MaxLen: 100}
	c, err := corpus.Generate(m, 64*800, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// renderLedgerText is bench's text for a document: each term as "x" and
// its decimal digits mapped to a–j, repeated count times.
func renderLedgerText(d corpus.Document) string {
	var b strings.Builder
	for i, term := range d.Terms {
		tok := "x" + strings.Map(func(r rune) rune { return 'a' + r - '0' }, strconv.Itoa(term))
		for n := 0; n < d.Counts[i]; n++ {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(tok)
		}
	}
	return b.String()
}

func putInts(h hash.Hash, vs ...int) {
	var buf []byte
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	h.Write(buf)
}

func TestLedgerInputsPinned(t *testing.T) {
	want := map[string]string{
		"corpus seed 1": "86f17a81b1f543368071095fc4709fada426a86b7dd5a2cf900d54b7eea6bd61",
		"corpus seed 2": "d9dffae23d383c3a7b0de0db04cc0145aaa5ac5fa7838d3539fcd9d2be9e8852",
		"matrix seed 1": "c7654351f21cd96caf30d1cd119586977421de2ce179231b46134f1fe2b2e2b5",
	}
	got := map[string]string{}
	for seed := int64(1); seed <= 2; seed++ {
		c := ledgerCorpus(t, seed)
		h := sha256.New()
		putInts(h, c.NumTerms, len(c.Docs))
		for _, d := range c.Docs {
			putInts(h, d.ID, d.Spec.Length, len(d.Spec.TopicIDs), len(d.Terms))
			putInts(h, d.Spec.TopicIDs...)
			for _, w := range d.Spec.TopicWeights {
				putInts(h, int(math.Float64bits(w)))
			}
			putInts(h, d.Terms...)
			putInts(h, d.Counts...)
		}
		got[fmt.Sprintf("corpus seed %d", seed)] = fmt.Sprintf("%x", h.Sum(nil))
		if seed != 1 {
			continue
		}
		texts := make([]string, len(c.Docs))
		for i, d := range c.Docs {
			texts[i] = renderLedgerText(d)
		}
		a := (&ir.Pipeline{}).TermDocMatrix(texts, corpus.CountWeighting)
		h = sha256.New()
		putInts(h, a.Rows(), a.Cols(), a.NNZ())
		for i := 0; i < a.Rows(); i++ {
			a.RowIter(i, func(j int, v float64) { putInts(h, i, j, int(math.Float64bits(v))) })
		}
		got["matrix seed 1"] = fmt.Sprintf("%x", h.Sum(nil))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: sha256 %s, recorded %s", name, got[name], w)
		}
	}
}
