package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/lsi"
	"repro/internal/randproj"
	"repro/internal/svd"
)

// WeightingAblationResult verifies the paper's Section 2 remark that the
// choice of count function ("0-1, frequency, etc.") does not affect the
// results: it reruns the Table 1 skew measurement under every weighting.
type WeightingAblationResult struct {
	Config Table1Config
	Rows   []WeightingRow
}

// WeightingRow is one weighting's skew outcome.
type WeightingRow struct {
	Weighting corpus.Weighting
	LSISkew   float64
	IntraMean float64
	InterMean float64
}

// RunWeightingAblation sweeps the weighting schemes on a fixed corpus.
func RunWeightingAblation(cfg Table1Config) (*WeightingAblationResult, error) {
	c, _, err := samplePure(cfg.Corpus, cfg.NumDocs, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	labels := c.Labels()
	out := &WeightingAblationResult{Config: cfg}
	for _, w := range []corpus.Weighting{
		corpus.CountWeighting, corpus.BinaryWeighting, corpus.LogWeighting, corpus.TFIDFWeighting,
	} {
		a := corpus.TermDocMatrix(c, w)
		ix, err := lsi.Build(a, cfg.K, lsi.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		set := ix.Angles(labels)
		intra, inter := set.Summaries()
		out.Rows = append(out.Rows, WeightingRow{
			Weighting: w, LSISkew: ix.Skew(labels),
			IntraMean: intra.Mean, InterMean: inter.Mean,
		})
	}
	return out, nil
}

// Table renders the ablation.
func (r *WeightingAblationResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation (§2 remark): weighting scheme vs rank-%d LSI topic separation\n", r.Config.K)
	fmt.Fprintf(&b, "%-8s %10s %12s %12s\n", "scheme", "skew", "intra mean", "inter mean")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %10.4g %12.4g %12.4g\n", row.Weighting, row.LSISkew, row.IntraMean, row.InterMean)
	}
	return b.String()
}

// ProjectionAblationResult compares the three projection families on the
// Theorem 5 recovered-energy metric. The paper proves the theorem for the
// column-orthonormal family; the ablation shows Gaussian and sign behave
// alike.
type ProjectionAblationResult struct {
	Config Theorem5Config
	Rows   []ProjectionRow
}

// ProjectionRow is one family's outcome at a fixed l.
type ProjectionRow struct {
	Kind          randproj.Kind
	L             int
	RecoveredFrac float64
}

// RunProjectionAblation compares projection families at the middle of the
// configured l sweep.
func RunProjectionAblation(cfg Theorem5Config) (*ProjectionAblationResult, error) {
	_, a, err := samplePure(cfg.Corpus, cfg.NumDocs, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	l := cfg.Ls[len(cfg.Ls)/2]
	out := &ProjectionAblationResult{Config: cfg}
	for _, kind := range []randproj.Kind{randproj.Orthonormal, randproj.Gaussian, randproj.Sign} {
		row, err := theorem5Row(a, cfg.K, l, randproj.TwoStepOptions{Kind: kind, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, ProjectionRow{Kind: kind, L: l, RecoveredFrac: row.RecoveredFrac})
	}
	return out, nil
}

// Table renders the ablation.
func (r *ProjectionAblationResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation (§5): projection family vs two-step recovered energy\n")
	fmt.Fprintf(&b, "%-12s %6s %12s\n", "family", "l", "recovered")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %6d %11.1f%%\n", row.Kind, row.L, 100*row.RecoveredFrac)
	}
	return b.String()
}

// EngineAblationResult compares SVD engines on accuracy (vs the Jacobi
// reference) and wall time, on a corpus-model matrix.
type EngineAblationResult struct {
	Rows []EngineRow
}

// EngineRow is one engine's outcome.
type EngineRow struct {
	Name      string
	MaxRelErr float64 // vs Jacobi reference singular values (top k)
	Millis    float64
}

// RunEngineAblation compares the Golub–Reinsch, Lanczos (with and without
// reorthogonalization), and randomized engines against the Jacobi reference
// on a moderate corpus matrix.
func RunEngineAblation(seed int64) (*EngineAblationResult, error) {
	_, a, err := samplePure(ablationCorpus, ablationDocs, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	ad := a.ToDense()
	const k = 5
	ref, err := Jacobi(ad)
	if err != nil {
		return nil, err
	}
	out := &EngineAblationResult{}
	engines := []struct {
		name string
		run  func() (*svd.Result, error)
	}{
		{"golub-reinsch", func() (*svd.Result, error) { return svd.Decompose(ad) }},
		{"lanczos+reorth", func() (*svd.Result, error) {
			return Lanczos(a, k, LanczosOptions{Reorthogonalize: true, Rng: rand.New(rand.NewSource(seed))})
		}},
		{"lanczos-noreorth", func() (*svd.Result, error) {
			return Lanczos(a, k, LanczosOptions{Reorthogonalize: false, Rng: rand.New(rand.NewSource(seed))})
		}},
		{"randomized", func() (*svd.Result, error) {
			return svd.Randomized(a.Block(), k, svd.RandomizedOptions{Rng: rand.New(rand.NewSource(seed))})
		}},
	}
	for _, e := range engines {
		start := time.Now()
		res, err := e.run()
		ms := float64(time.Since(start).Microseconds()) / 1000
		if err != nil {
			return nil, fmt.Errorf("experiments: engine %s: %w", e.name, err)
		}
		out.Rows = append(out.Rows, EngineRow{Name: e.name, MaxRelErr: maxRelErr(res.S, ref.S, k), Millis: ms})
	}
	return out, nil
}

// Table renders the ablation.
func (r *EngineAblationResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: SVD engine accuracy (vs one-sided Jacobi) and time\n")
	fmt.Fprintf(&b, "%-18s %14s %10s\n", "engine", "max rel err", "ms")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-18s %14.3g %10.2f\n", row.Name, row.MaxRelErr, row.Millis)
	}
	return b.String()
}
