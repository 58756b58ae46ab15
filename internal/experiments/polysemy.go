package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/lsi"
	"repro/internal/mat"
)

// PolysemyConfig parameterizes the polysemy probe — the paper's second
// open question ("does LSI address polysemy?", Section 6). A polysemous
// term is one that two topics both generate; the experiment asks (1) where
// LSI places such a term, and (2) whether retrieval with the polysemous
// term plus one context term disambiguates the intended topic.
type PolysemyConfig struct {
	Corpus    corpus.SeparableConfig
	NumShared int
	ShareMass float64
	NumDocs   int
	K         int
	TopN      int
	// ContextQueries is the number of sampled context terms per side.
	ContextQueries int
	Seed           int64
}

// DefaultPolysemyConfig plants 3 polysemous terms across 6 topics.
func DefaultPolysemyConfig() PolysemyConfig {
	return PolysemyConfig{
		Corpus: corpus.SeparableConfig{
			NumTopics: 6, TermsPerTopic: 40, Epsilon: 0.03, MinLen: 60, MaxLen: 100,
		},
		NumShared: 3, ShareMass: 0.12,
		NumDocs: 300, K: 6, TopN: 10, ContextQueries: 5,
		Seed: 14,
	}
}

// SmallPolysemyConfig is the test-sized variant.
func SmallPolysemyConfig() PolysemyConfig {
	return PolysemyConfig{
		Corpus: corpus.SeparableConfig{
			NumTopics: 4, TermsPerTopic: 20, Epsilon: 0, MinLen: 50, MaxLen: 80,
		},
		NumShared: 2, ShareMass: 0.15,
		NumDocs: 120, K: 4, TopN: 10, ContextQueries: 4,
		Seed: 14,
	}
}

// PolysemyTermResult reports one planted term's behaviour.
type PolysemyTermResult struct {
	Term           int
	TopicA, TopicB int
	// LoadA and LoadB are the cosines between the term's LSI direction
	// (row of Uₖ) and the two topics' document-centroid directions: a
	// polysemous term loads on both (a monosemous term loads on one).
	LoadA, LoadB float64
	// MonoLoadOwn and MonoLoadOther are the same measurements averaged over
	// a reference monosemous primary term of topic A, for contrast.
	MonoLoadOwn, MonoLoadOther float64
	// BarePrecisionA is P@N for topic A when querying the bare polysemous
	// term (ambiguous — mass splits between the two topics).
	BarePrecisionA float64
	// ContextPrecisionA / B are P@N for the intended topic when the query
	// adds one context term from that topic: LSI disambiguates.
	ContextPrecisionA, ContextPrecisionB float64
}

// PolysemyResult aggregates per-term results.
type PolysemyResult struct {
	Config PolysemyConfig
	Terms  []PolysemyTermResult
}

// RunPolysemy builds a corpus with planted polysemous terms and probes the
// LSI geometry and retrieval behaviour around them.
func RunPolysemy(cfg PolysemyConfig) (*PolysemyResult, error) {
	model, shared, err := corpus.PolysemousSeparableModel(cfg.Corpus, cfg.NumShared, cfg.ShareMass)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	c, err := corpus.Generate(model, cfg.NumDocs, rng)
	if err != nil {
		return nil, err
	}
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	labels := c.Labels()
	ix, err := lsi.Build(a, cfg.K, lsi.Options{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	// Topic centroid directions in the k-dimensional latent space.
	centroids := topicCentroids(ix, labels, cfg.Corpus.NumTopics)
	uk := ix.Basis()
	n := model.NumTerms

	relevant := func(topic int) map[int]bool {
		rel := map[int]bool{}
		for doc, l := range labels {
			if l == topic {
				rel[doc] = true
			}
		}
		return rel
	}
	precisionFor := func(q []float64, topic int) float64 {
		docs := matchDocs(ix.Search(q, 0))
		return ir.PrecisionAtK(docs, relevant(topic), cfg.TopN)
	}

	out := &PolysemyResult{Config: cfg}
	for _, st := range shared {
		res := PolysemyTermResult{Term: st.Term, TopicA: st.TopicA, TopicB: st.TopicB}
		termVec := uk.Row(st.Term)
		res.LoadA = mat.Cosine(termVec, centroids[st.TopicA])
		res.LoadB = mat.Cosine(termVec, centroids[st.TopicB])
		// Reference monosemous term: average over a few primary terms of
		// topic A.
		prim := cfg.Corpus.PrimarySet(st.TopicA)
		var own, other float64
		count := min(5, len(prim))
		for i := 0; i < count; i++ {
			mv := uk.Row(prim[i])
			own += mat.Cosine(mv, centroids[st.TopicA])
			other += mat.Cosine(mv, centroids[st.TopicB])
		}
		res.MonoLoadOwn = own / float64(count)
		res.MonoLoadOther = other / float64(count)

		// Bare query: just the polysemous term.
		bare := make([]float64, n)
		bare[st.Term] = 1
		res.BarePrecisionA = precisionFor(bare, st.TopicA)

		// Context queries: polysemous term + one random primary term of the
		// intended topic.
		for side, topic := range []int{st.TopicA, st.TopicB} {
			var sum float64
			primSet := cfg.Corpus.PrimarySet(topic)
			for t := 0; t < cfg.ContextQueries; t++ {
				q := make([]float64, n)
				q[st.Term] = 1
				q[primSet[rng.Intn(len(primSet))]] = 1
				sum += precisionFor(q, topic)
			}
			avg := sum / float64(cfg.ContextQueries)
			if side == 0 {
				res.ContextPrecisionA = avg
			} else {
				res.ContextPrecisionB = avg
			}
		}
		out.Terms = append(out.Terms, res)
	}
	return out, nil
}

// topicCentroids returns the normalized mean LSI document vector per topic.
func topicCentroids(ix *lsi.Index, labels []int, k int) [][]float64 {
	dim := ix.K()
	centroids := make([][]float64, k)
	counts := make([]int, k)
	for t := range centroids {
		centroids[t] = make([]float64, dim)
	}
	for doc, l := range labels {
		if l < 0 || l >= k {
			continue
		}
		mat.Axpy(1, ix.DocVector(doc), centroids[l])
		counts[l]++
	}
	for t := range centroids {
		if counts[t] > 0 {
			mat.ScaleVec(1/float64(counts[t]), centroids[t])
		}
		mat.Normalize(centroids[t])
	}
	return centroids
}

// Table renders the per-term report.
func (r *PolysemyResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Polysemy (open question, §6): planted two-topic terms, rank-%d LSI\n", r.Config.K)
	fmt.Fprintf(&b, "%6s %7s %7s %8s %8s %9s %10s %8s %11s %11s\n",
		"term", "topicA", "topicB", "loadA", "loadB", "mono own", "mono other",
		fmt.Sprintf("bareP@%d", r.Config.TopN), "ctxA P@10", "ctxB P@10")
	for _, t := range r.Terms {
		fmt.Fprintf(&b, "%6d %7d %7d %8.3f %8.3f %9.3f %10.3f %8.3f %11.3f %11.3f\n",
			t.Term, t.TopicA, t.TopicB, t.LoadA, t.LoadB, t.MonoLoadOwn, t.MonoLoadOther,
			t.BarePrecisionA, t.ContextPrecisionA, t.ContextPrecisionB)
	}
	b.WriteString("\n(loadA ≈ loadB: the polysemous term sits between its two topics,\n")
	b.WriteString(" unlike a monosemous term (mono own ≈ 1, mono other ≈ 0);\n")
	b.WriteString(" a single context term restores near-perfect precision)\n")
	return b.String()
}
