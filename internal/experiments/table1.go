// Package experiments implements one entry point per table, figure, or
// theorem-shaped claim in the paper's evaluation, shared by the lsibench
// CLI, the benchmark harness, and EXPERIMENTS.md. Every experiment takes an
// explicit configuration with a Default*() constructor reproducing the
// paper's parameters (scaled-down variants are used by the unit tests and
// benchmarks) and returns a structured result with a Table() rendering in
// the paper's own format.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/corpus"
	"repro/internal/lsi"
	"repro/internal/sparse"
	"repro/internal/stats"
)

// Table1Config parameterizes the Section 4 experiment: pairwise document
// angles in the original space versus the rank-k LSI space.
type Table1Config struct {
	Corpus  corpus.SeparableConfig
	NumDocs int
	K       int // LSI rank; the paper uses k = number of topics
	Seed    int64
}

// DefaultTable1Config returns the paper's exact parameters: 1000 documents
// of 50–100 terms from a 0.05-separable model with 20 topics over 2000
// terms, rank-20 LSI.
func DefaultTable1Config() Table1Config {
	return Table1Config{
		Corpus:  corpus.PaperConfig(),
		NumDocs: 1000,
		K:       20,
		Seed:    1,
	}
}

// SmallTable1Config returns a scaled-down variant for tests and quick runs
// (5 topics × 40 terms, 150 documents, rank 5).
func SmallTable1Config() Table1Config {
	return Table1Config{
		Corpus: corpus.SeparableConfig{
			NumTopics: 5, TermsPerTopic: 40, Epsilon: 0.05, MinLen: 50, MaxLen: 100,
		},
		NumDocs: 150,
		K:       5,
		Seed:    1,
	}
}

// Table1Result holds both angle populations in both spaces, plus the skew
// summary and the populations' histograms.
type Table1Result struct {
	Config                  Table1Config
	OriginalIntra, LSIIntra stats.Summary
	OriginalInter, LSIInter stats.Summary
	OriginalSkew, LSISkew   float64
	SingularValues          []float64
	// Histograms counts each population in figureBins bins over
	// [0, π/2+0.1], in Figure's order: intratopic original and LSI,
	// then intertopic original and LSI.
	Histograms [4][]int
}

// RunTable1 generates the corpus, builds the index, and measures the
// intratopic / intertopic angle statistics in both spaces.
func RunTable1(cfg Table1Config) (*Table1Result, error) {
	c, a, err := samplePure(cfg.Corpus, cfg.NumDocs, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	labels := c.Labels()
	ix, err := lsi.Build(a, cfg.K, lsi.Options{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	origSet := lsi.OriginalAngles(a, labels)
	lsiSet := ix.Angles(labels)
	res := &Table1Result{Config: cfg, SingularValues: ix.SingularValues()}
	res.OriginalIntra, res.OriginalInter = origSet.Summaries()
	res.LSIIntra, res.LSIInter = lsiSet.Summaries()
	res.OriginalSkew = lsi.OriginalSkew(a, labels)
	res.LSISkew = ix.Skew(labels)
	for i, angles := range [][]float64{origSet.Intra, lsiSet.Intra, origSet.Inter, lsiSet.Inter} {
		res.Histograms[i] = stats.Histogram(angles, 0, figureTop, figureBins)
	}
	return res, nil
}

// samplePure draws n documents with rng from the pure separable model of
// cfg and counts them into the term-document matrix.
func samplePure(cfg corpus.SeparableConfig, n int, rng *rand.Rand) (*corpus.Corpus, *sparse.CSR, error) {
	model, err := corpus.PureSeparableModel(cfg)
	if err != nil {
		return nil, nil, err
	}
	return sample(model, n, rng)
}

// sample draws n documents with rng from model and counts them into the
// term-document matrix.
func sample(model *corpus.Model, n int, rng *rand.Rand) (*corpus.Corpus, *sparse.CSR, error) {
	c, err := corpus.Generate(model, n, rng)
	if err != nil {
		return nil, nil, err
	}
	return c, corpus.TermDocMatrix(c, corpus.CountWeighting), nil
}

// Table renders the result in the layout of the paper's Section 4 table
// (angles in radians).
func (r *Table1Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: pairwise document angles (radians), %d topics, %d docs, eps=%.2g, rank-%d LSI\n",
		r.Config.Corpus.NumTopics, r.Config.NumDocs, r.Config.Corpus.Epsilon, r.Config.K)
	fmt.Fprintf(&b, "\nIntratopic (%d pairs)\n", r.OriginalIntra.N)
	fmt.Fprintf(&b, "%-16s %8s %8s %8s %8s\n", "", "Min", "Max", "Average", "Std.")
	fmt.Fprintf(&b, "%-16s %8.3g %8.3g %8.3g %8.3g\n", "Original space",
		r.OriginalIntra.Min, r.OriginalIntra.Max, r.OriginalIntra.Mean, r.OriginalIntra.Std)
	fmt.Fprintf(&b, "%-16s %8.3g %8.3g %8.3g %8.3g\n", "LSI space",
		r.LSIIntra.Min, r.LSIIntra.Max, r.LSIIntra.Mean, r.LSIIntra.Std)
	fmt.Fprintf(&b, "\nIntertopic (%d pairs)\n", r.OriginalInter.N)
	fmt.Fprintf(&b, "%-16s %8s %8s %8s %8s\n", "", "Min", "Max", "Average", "Std.")
	fmt.Fprintf(&b, "%-16s %8.3g %8.3g %8.3g %8.3g\n", "Original space",
		r.OriginalInter.Min, r.OriginalInter.Max, r.OriginalInter.Mean, r.OriginalInter.Std)
	fmt.Fprintf(&b, "%-16s %8.3g %8.3g %8.3g %8.3g\n", "LSI space",
		r.LSIInter.Min, r.LSIInter.Max, r.LSIInter.Mean, r.LSIInter.Std)
	fmt.Fprintf(&b, "\nSkew: original %.4g, LSI %.4g\n", r.OriginalSkew, r.LSISkew)
	return b.String()
}
