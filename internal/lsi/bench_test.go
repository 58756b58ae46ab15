package lsi

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/sparse"
)

// ledgerMatrix is the term-document matrix of docs documents of the
// benchmark ledger's corpus: the ε-separable 64-topic model (1,600 terms,
// ε = 0.1, 50–100 tokens, ~30 distinct terms a document), topics dealt
// round-robin, raw counts.
func ledgerMatrix(tb testing.TB, docs int) *sparse.CSR {
	tb.Helper()
	model, err := corpus.PureSeparableModel(corpus.SeparableConfig{
		NumTopics: 64, TermsPerTopic: 25, Epsilon: 0.1, MinLen: 50, MaxLen: 100,
	})
	if err != nil {
		tb.Fatal(err)
	}
	model.Sampler = &corpus.RoundRobinSampler{NumTopics: 64, MinLen: 50, MaxLen: 100}
	c, err := corpus.Generate(model, docs, rand.New(rand.NewSource(22)))
	if err != nil {
		tb.Fatal(err)
	}
	return corpus.TermDocMatrix(c, corpus.CountWeighting)
}

// BenchmarkBuildEngines is the measurement behind autoDenseBelow: Build at
// the ledger's rank with each engine named explicitly, on both sides of
// the crossover. Its readings are EXPERIMENTS.md "Compaction engines
// (PR 22)".
func BenchmarkBuildEngines(b *testing.B) {
	for _, docs := range []int{16, 24, 32, 48, 64, 128, 192} {
		a := ledgerMatrix(b, docs)
		for _, e := range []Engine{EngineDense, EngineRandomized} {
			b.Run(fmt.Sprintf("docs=%d/engine=%v", docs, e), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := Build(a, 64, Options{Engine: e, Seed: 1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
