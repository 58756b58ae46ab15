package corpus

import (
	"math/rand"
	"testing"
)

func BenchmarkGeneratePaperCorpus(b *testing.B) {
	model, err := PureSeparableModel(PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(model, 1000, rand.New(rand.NewSource(1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateLedgerShape draws the corpus every ledger workload
// builds on: 64 pure ε-separable topics of 25 terms (ε = 0.1), documents
// of 50–100 terms dealt round-robin, 800 a topic (51,200 documents).
func BenchmarkGenerateLedgerShape(b *testing.B) {
	const topics = 64
	model, err := PureSeparableModel(SeparableConfig{NumTopics: topics, TermsPerTopic: 25, Epsilon: 0.1, MinLen: 50, MaxLen: 100})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		model.Sampler = &RoundRobinSampler{NumTopics: topics, MinLen: 50, MaxLen: 100}
		if _, err := Generate(model, topics*800, rand.New(rand.NewSource(1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopicSample(b *testing.B) {
	model, err := PureSeparableModel(PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	topic := model.Topics[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topic.Sample(rng)
	}
}

func BenchmarkTermDocMatrixPaperCorpus(b *testing.B) {
	model, err := PureSeparableModel(PaperConfig())
	if err != nil {
		b.Fatal(err)
	}
	c, err := Generate(model, 1000, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TermDocMatrix(c, CountWeighting)
	}
}

func BenchmarkStyledGeneration(b *testing.B) {
	cfg := SeparableConfig{NumTopics: 6, TermsPerTopic: 30, Epsilon: 0.03, MinLen: 60, MaxLen: 100}
	model, _, err := SynonymSeparableModel(cfg, 3, rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(model, 200, rand.New(rand.NewSource(4))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDirichlet(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dirichlet(0.8, 5, rng)
	}
}
