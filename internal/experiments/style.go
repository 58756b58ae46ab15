package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/corpus"
	"repro/internal/lsi"
)

// StyleConfig parameterizes the style-degradation experiment. The paper's
// Theorems 2 and 3 assume a style-free corpus model and flag the
// assumption as "probably too strong" future work; this experiment applies
// cross-topic styles of increasing strength (Definition 3) to a
// 0-separable corpus and measures how the rank-k LSI skew degrades —
// empirically, a style of strength s behaves like separability ε ≈ s.
type StyleConfig struct {
	Corpus         corpus.SeparableConfig
	NumDocs        int
	Strengths      []float64
	TargetsPerTerm int
	Seed           int64
}

// DefaultStyleConfig sweeps style strength on a 10-topic corpus.
func DefaultStyleConfig() StyleConfig {
	return StyleConfig{
		Corpus: corpus.SeparableConfig{
			NumTopics: 10, TermsPerTopic: 50, Epsilon: 0, MinLen: 50, MaxLen: 100,
		},
		NumDocs:        400,
		Strengths:      []float64{0, 0.05, 0.1, 0.2, 0.4},
		TargetsPerTerm: 4,
		Seed:           16,
	}
}

// SmallStyleConfig is the test-sized variant.
func SmallStyleConfig() StyleConfig {
	return StyleConfig{
		Corpus: corpus.SeparableConfig{
			NumTopics: 4, TermsPerTopic: 20, Epsilon: 0, MinLen: 40, MaxLen: 70,
		},
		NumDocs:        100,
		Strengths:      []float64{0, 0.1, 0.3},
		TargetsPerTerm: 3,
		Seed:           16,
	}
}

// StyleRow is one strength's measurement.
type StyleRow struct {
	Strength  float64
	LSISkew   float64
	IntraMean float64
	InterMean float64
}

// StyleResult is the sweep output.
type StyleResult struct {
	Config StyleConfig
	Rows   []StyleRow
}

// RunStyle sweeps cross-topic style strength over a 0-separable model.
func RunStyle(cfg StyleConfig) (*StyleResult, error) {
	out := &StyleResult{Config: cfg}
	for _, s := range cfg.Strengths {
		rng := rand.New(rand.NewSource(cfg.Seed))
		model, err := corpus.PureSeparableModel(cfg.Corpus)
		if err != nil {
			return nil, err
		}
		style, err := corpus.CrossTopicStyle(cfg.Corpus, s, cfg.TargetsPerTerm, rng)
		if err != nil {
			return nil, err
		}
		model.Styles = []*corpus.Style{style}
		sampler := corpus.NewPureSampler(cfg.Corpus.NumTopics, cfg.Corpus.MinLen, cfg.Corpus.MaxLen)
		sampler.StyleID = 0
		model.Sampler = sampler
		c, a, err := sample(model, cfg.NumDocs, rng)
		if err != nil {
			return nil, err
		}
		labels := c.Labels()
		ix, err := lsi.Build(a, cfg.Corpus.NumTopics, lsi.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		set := ix.Angles(labels)
		intra, inter := set.Summaries()
		out.Rows = append(out.Rows, StyleRow{
			Strength:  s,
			LSISkew:   ix.Skew(labels),
			IntraMean: intra.Mean,
			InterMean: inter.Mean,
		})
	}
	return out, nil
}

// Table renders the sweep.
func (r *StyleResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Style degradation (Definition 3; Theorems 2/3 assume style-free): cross-topic style strength vs rank-%d LSI\n",
		r.Config.Corpus.NumTopics)
	fmt.Fprintf(&b, "%10s %10s %12s %12s\n", "strength", "skew", "intra mean", "inter mean")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10.3g %10.4f %12.4f %12.4f\n",
			row.Strength, row.LSISkew, row.IntraMean, row.InterMean)
	}
	return b.String()
}
