package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/corpus"
	"repro/internal/lsi"
	"repro/internal/mat"
	"repro/internal/stats"
)

// MixtureConfig probes the open question the paper states after Theorem 2:
// "Can Theorem 2 be extended to a model where documents could belong to
// several topics?" Documents mix up to MaxTopics topics with Dirichlet(α)
// weights; we measure how well the rank-k LSI representation still tracks
// topical composition, via the angle between pairs of documents as a
// function of the overlap of their topic weight vectors.
type MixtureConfig struct {
	Corpus    corpus.SeparableConfig
	NumDocs   int
	MaxTopics int
	Alpha     float64
	K         int
	Seed      int64
}

// DefaultMixtureConfig mixes up to 3 of 8 topics.
func DefaultMixtureConfig() MixtureConfig {
	return MixtureConfig{
		Corpus: corpus.SeparableConfig{
			NumTopics: 8, TermsPerTopic: 40, Epsilon: 0.03, MinLen: 60, MaxLen: 100,
		},
		NumDocs:   300,
		MaxTopics: 3,
		Alpha:     0.8,
		K:         8,
		Seed:      12,
	}
}

// SmallMixtureConfig is the test-sized variant.
func SmallMixtureConfig() MixtureConfig {
	return MixtureConfig{
		Corpus: corpus.SeparableConfig{
			NumTopics: 4, TermsPerTopic: 15, Epsilon: 0, MinLen: 50, MaxLen: 80,
		},
		NumDocs:   80,
		MaxTopics: 2,
		Alpha:     1,
		K:         4,
		Seed:      12,
	}
}

// MixtureResult buckets pairwise LSI angles by the cosine overlap of the
// pair's true topic-weight vectors: if LSI tracks topical composition, high
// topic overlap ⇒ small angle, zero overlap ⇒ near-orthogonal.
type MixtureResult struct {
	Config MixtureConfig
	// Buckets: topic-weight overlap in [0,0.25), [0.25,0.75), [0.75,1].
	LowOverlap, MidOverlap, HighOverlap stats.Summary
	// Correlation between topic-weight overlap and LSI cosine over pairs.
	Correlation float64
}

// RunMixture generates a mixed-membership corpus and relates LSI geometry
// to true topical overlap.
func RunMixture(cfg MixtureConfig) (*MixtureResult, error) {
	model, err := corpus.MixedSeparableModel(cfg.Corpus, cfg.MaxTopics, cfg.Alpha)
	if err != nil {
		return nil, err
	}
	c, a, err := sample(model, cfg.NumDocs, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	ix, err := lsi.Build(a, cfg.K, lsi.Options{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	// True topic-weight vectors.
	k := cfg.Corpus.NumTopics
	tw := make([][]float64, cfg.NumDocs)
	for i, d := range c.Docs {
		w := make([]float64, k)
		for j, id := range d.Spec.TopicIDs {
			w[id] = d.Spec.TopicWeights[j]
		}
		tw[i] = w
	}
	gram := lsi.GramFromRows(ix.DocVectors())
	var low, mid, high []float64
	var xs, ys []float64
	for i := 0; i < cfg.NumDocs; i++ {
		for j := i + 1; j < cfg.NumDocs; j++ {
			overlap := mat.Cosine(tw[i], tw[j])
			gii, gjj := gram.At(i, i), gram.At(j, j)
			if gii <= 0 || gjj <= 0 {
				continue
			}
			cos := gram.At(i, j) / math.Sqrt(gii*gjj)
			xs = append(xs, overlap)
			ys = append(ys, cos)
			switch {
			case overlap < 0.25:
				low = append(low, cos)
			case overlap < 0.75:
				mid = append(mid, cos)
			default:
				high = append(high, cos)
			}
		}
	}
	return &MixtureResult{
		Config:      cfg,
		LowOverlap:  stats.Summarize(low),
		MidOverlap:  stats.Summarize(mid),
		HighOverlap: stats.Summarize(high),
		Correlation: pearson(xs, ys),
	}, nil
}

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Table renders the bucketed comparison.
func (r *MixtureResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Mixed-topic extension (open question after Theorem 2): LSI cosine vs true topic overlap\n")
	fmt.Fprintf(&b, "%-22s %8s %10s %10s\n", "topic-weight overlap", "pairs", "mean cos", "std")
	fmt.Fprintf(&b, "%-22s %8d %10.4f %10.4f\n", "low    [0, 0.25)", r.LowOverlap.N, r.LowOverlap.Mean, r.LowOverlap.Std)
	fmt.Fprintf(&b, "%-22s %8d %10.4f %10.4f\n", "mid    [0.25, 0.75)", r.MidOverlap.N, r.MidOverlap.Mean, r.MidOverlap.Std)
	fmt.Fprintf(&b, "%-22s %8d %10.4f %10.4f\n", "high   [0.75, 1]", r.HighOverlap.N, r.HighOverlap.Mean, r.HighOverlap.Std)
	fmt.Fprintf(&b, "\nPearson correlation (overlap vs LSI cosine): %.4f\n", r.Correlation)
	return b.String()
}
