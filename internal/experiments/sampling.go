package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/corpus"
	"repro/internal/lsi"
	"repro/internal/mat"
	"repro/internal/randproj"
)

// SamplingConfig parameterizes the Section 5 discussion experiment: "LSI is
// often done not on the entire corpus, but on a randomly selected
// subcorpus... There is very little nonempirical evidence of the accuracy
// of such sampling. Our result suggests a different and more elaborate
// approach — projection on a random low-dimensional subspace — which can be
// rigorously proved to be accurate." The experiment compares:
//
//   - full: rank-k LSI on the whole corpus (reference);
//   - sample-X%: rank-k LSI on a random X% document subcorpus, with the
//     remaining documents folded in (the literature's practice);
//   - projection: the paper's two-step method at l = O(log n/ε²).
//
// Each method is scored by the δ-skew of the resulting representation of
// ALL documents and by the recovered spectral energy vs the reference.
type SamplingConfig struct {
	Corpus      corpus.SeparableConfig
	NumDocs     int
	K           int
	SampleRates []float64 // fractions of documents kept for the SVD
	L           int       // projection dimension for the two-step method
	Seed        int64
}

// DefaultSamplingConfig compares 10/25/50% document samples with an l=100
// projection on a 10-topic corpus.
func DefaultSamplingConfig() SamplingConfig {
	return SamplingConfig{
		Corpus: corpus.SeparableConfig{
			NumTopics: 10, TermsPerTopic: 50, Epsilon: 0.05, MinLen: 50, MaxLen: 100,
		},
		NumDocs:     500,
		K:           10,
		SampleRates: []float64{0.1, 0.25, 0.5},
		L:           100,
		Seed:        15,
	}
}

// SmallSamplingConfig is the test-sized variant.
func SmallSamplingConfig() SamplingConfig {
	return SamplingConfig{
		Corpus: corpus.SeparableConfig{
			NumTopics: 4, TermsPerTopic: 20, Epsilon: 0.05, MinLen: 40, MaxLen: 70,
		},
		NumDocs:     120,
		K:           4,
		SampleRates: []float64{0.15, 0.5},
		L:           30,
		Seed:        15,
	}
}

// SamplingRow is one method's outcome.
type SamplingRow struct {
	Method string
	// Skew is the δ-skew of the method's representation of all documents.
	// Being a max-over-pairs statistic it is sensitive to the JL
	// distortion tail: a single badly-projected pair raises it, which is
	// exactly the trade-off the §5 discussion is about.
	Skew float64
	// IntraMean and InterMean are the mean intratopic and intertopic
	// angles (radians) of the representation — the Table 1 statistics.
	IntraMean, InterMean float64
	// EnergyFrac is the spectral energy of the method's document
	// representations relative to the full-LSI reference (‖V·D‖²_F ratio).
	EnergyFrac float64
}

// SamplingResult is the comparison output.
type SamplingResult struct {
	Config SamplingConfig
	Rows   []SamplingRow
}

// RunSampling builds all methods over one corpus and scores them.
func RunSampling(cfg SamplingConfig) (*SamplingResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	c, a, err := samplePure(cfg.Corpus, cfg.NumDocs, rng)
	if err != nil {
		return nil, err
	}
	labels := c.Labels()
	out := &SamplingResult{Config: cfg}

	score := func(method string, reps *mat.Dense, energyFrac float64) SamplingRow {
		gram := lsi.GramFromRows(reps)
		set := lsi.PairAngles(gram, labels)
		intra, inter := set.Summaries()
		return SamplingRow{
			Method:     method,
			Skew:       lsi.SkewFromGram(gram, labels),
			IntraMean:  intra.Mean,
			InterMean:  inter.Mean,
			EnergyFrac: energyFrac,
		}
	}

	// Reference: full LSI.
	fullIx, err := lsi.Build(a, cfg.K, lsi.Options{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	refEnergy := fullIx.DocVectors().Frob()
	refEnergy *= refEnergy
	out.Rows = append(out.Rows, score("full", fullIx.DocVectors(), 1))

	// Document-sampled LSI with fold-in of the rest.
	for _, rate := range cfg.SampleRates {
		if rate <= 0 || rate > 1 {
			return nil, fmt.Errorf("experiments: sample rate %v out of (0,1]", rate)
		}
		keep := int(rate * float64(cfg.NumDocs))
		if keep < cfg.K {
			keep = cfg.K
		}
		sub := &corpus.Corpus{NumTerms: c.NumTerms}
		for _, j := range rng.Perm(cfg.NumDocs)[:keep] {
			sub.Docs = append(sub.Docs, c.Docs[j])
		}
		subIx, err := lsi.Build(corpus.TermDocMatrix(sub, corpus.CountWeighting), cfg.K, lsi.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		// Represent EVERY document (kept and held out) by folding into the
		// sampled basis, preserving corpus order.
		reps := mat.NewDense(cfg.NumDocs, subIx.K())
		for j := 0; j < cfg.NumDocs; j++ {
			reps.SetRow(j, subIx.Project(a.Col(j)))
		}
		energy := reps.Frob()
		out.Rows = append(out.Rows, score(
			fmt.Sprintf("sample-%d%%", int(rate*100)), reps, energy*energy/refEnergy))
	}

	// Random projection (two-step). The method keeps rank 2k for
	// reconstruction (Theorem 5), but for the k-dimensional skew comparison
	// against the other methods we score its top-k coordinates — the extra
	// k dimensions hold progressively noisier directions that would
	// penalize the max-over-pairs skew statistic without being used by a
	// k-dimensional retrieval system.
	ts, err := randproj.NewTwoStep(a, cfg.K, cfg.L, randproj.TwoStepOptions{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	dv := ts.DocVectors()
	topK := dv.SliceCols(0, min(cfg.K, dv.Cols()))
	energy := topK.Frob()
	out.Rows = append(out.Rows, score(
		fmt.Sprintf("projection-l%d", cfg.L), topK, energy*energy/refEnergy))
	return out, nil
}

// Table renders the comparison.
func (r *SamplingResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§5 discussion: document sampling vs random projection (k=%d, %d docs)\n",
		r.Config.K, r.Config.NumDocs)
	fmt.Fprintf(&b, "%-16s %10s %12s %12s %14s\n", "method", "skew", "intra mean", "inter mean", "energy frac")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %10.4f %12.4f %12.4f %13.1f%%\n",
			row.Method, row.Skew, row.IntraMean, row.InterMean, 100*row.EnergyFrac)
	}
	b.WriteString("\n(lower skew/intra-mean is better; energy relative to full-corpus LSI)\n")
	return b.String()
}
