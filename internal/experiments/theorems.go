package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/corpus"
	"repro/internal/lsi"
	"repro/internal/mat"
	"repro/internal/perturb"
)

// Theorem2Config parameterizes the Theorem 2 validation: on pure,
// 0-separable corpora the rank-k LSI must be (near-)0-skewed, with the
// skew vanishing as the corpus grows.
type Theorem2Config struct {
	NumTopics      int
	TermsPerTopic  int
	DocCounts      []int // corpus sizes m to sweep
	MinLen, MaxLen int
	Seed           int64
}

// DefaultTheorem2Config sweeps corpus sizes at k=10 topics.
func DefaultTheorem2Config() Theorem2Config {
	return Theorem2Config{
		NumTopics: 10, TermsPerTopic: 50,
		DocCounts: []int{100, 200, 400, 800},
		MinLen:    50, MaxLen: 100,
		Seed: 2,
	}
}

// SmallTheorem2Config is the test-sized variant.
func SmallTheorem2Config() Theorem2Config {
	return Theorem2Config{
		NumTopics: 4, TermsPerTopic: 20,
		DocCounts: []int{40, 120},
		MinLen:    40, MaxLen: 80,
		Seed: 2,
	}
}

// Theorem2Row is one corpus size's measurement.
type Theorem2Row struct {
	NumDocs      int
	LSISkew      float64
	OriginalSkew float64
}

// Theorem2Result is the sweep output.
type Theorem2Result struct {
	Config Theorem2Config
	Rows   []Theorem2Row
}

// RunTheorem2 sweeps corpus sizes on a 0-separable model.
func RunTheorem2(cfg Theorem2Config) (*Theorem2Result, error) {
	model, err := corpus.PureSeparableModel(corpus.SeparableConfig{
		NumTopics: cfg.NumTopics, TermsPerTopic: cfg.TermsPerTopic,
		Epsilon: 0, MinLen: cfg.MinLen, MaxLen: cfg.MaxLen,
	})
	if err != nil {
		return nil, err
	}
	out := &Theorem2Result{Config: cfg}
	for _, m := range cfg.DocCounts {
		c, a, err := sample(model, m, rand.New(rand.NewSource(cfg.Seed+int64(m))))
		if err != nil {
			return nil, err
		}
		labels := c.Labels()
		ix, err := lsi.Build(a, cfg.NumTopics, lsi.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Theorem2Row{
			NumDocs:      m,
			LSISkew:      ix.Skew(labels),
			OriginalSkew: lsi.OriginalSkew(a, labels),
		})
	}
	return out, nil
}

// Table renders the sweep.
func (r *Theorem2Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Theorem 2: rank-%d LSI skew on 0-separable pure corpora (0 = perfect)\n", r.Config.NumTopics)
	fmt.Fprintf(&b, "%8s %12s %14s\n", "m docs", "LSI skew", "original skew")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d %12.4g %14.4g\n", row.NumDocs, row.LSISkew, row.OriginalSkew)
	}
	return b.String()
}

// Theorem3Config parameterizes the ε sweep of Theorem 3: skew grows O(ε).
type Theorem3Config struct {
	NumTopics      int
	TermsPerTopic  int
	NumDocs        int
	Epsilons       []float64
	MinLen, MaxLen int
	Seed           int64
}

// DefaultTheorem3Config sweeps ε from 0 to 0.3.
func DefaultTheorem3Config() Theorem3Config {
	return Theorem3Config{
		NumTopics: 10, TermsPerTopic: 50, NumDocs: 400,
		Epsilons: []float64{0, 0.025, 0.05, 0.1, 0.2, 0.3},
		MinLen:   50, MaxLen: 100,
		Seed: 3,
	}
}

// SmallTheorem3Config is the test-sized variant.
func SmallTheorem3Config() Theorem3Config {
	return Theorem3Config{
		NumTopics: 3, TermsPerTopic: 20, NumDocs: 60,
		Epsilons: []float64{0, 0.05, 0.2},
		MinLen:   40, MaxLen: 80,
		Seed: 3,
	}
}

// Theorem3Row is one ε's measurement.
type Theorem3Row struct {
	Epsilon float64
	LSISkew float64
}

// Theorem3Result is the sweep output.
type Theorem3Result struct {
	Config Theorem3Config
	Rows   []Theorem3Row
}

// RunTheorem3 sweeps the separability parameter ε.
func RunTheorem3(cfg Theorem3Config) (*Theorem3Result, error) {
	out := &Theorem3Result{Config: cfg}
	for _, eps := range cfg.Epsilons {
		c, a, err := samplePure(corpus.SeparableConfig{
			NumTopics: cfg.NumTopics, TermsPerTopic: cfg.TermsPerTopic,
			Epsilon: eps, MinLen: cfg.MinLen, MaxLen: cfg.MaxLen,
		}, cfg.NumDocs, rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			return nil, err
		}
		ix, err := lsi.Build(a, cfg.NumTopics, lsi.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Theorem3Row{Epsilon: eps, LSISkew: ix.Skew(c.Labels())})
	}
	return out, nil
}

// Table renders the sweep.
func (r *Theorem3Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Theorem 3: rank-%d LSI skew vs separability eps (predicts O(eps))\n", r.Config.NumTopics)
	fmt.Fprintf(&b, "%8s %12s %12s\n", "eps", "LSI skew", "skew/eps")
	for _, row := range r.Rows {
		ratio := "-"
		if row.Epsilon > 0 {
			ratio = fmt.Sprintf("%12.3g", row.LSISkew/row.Epsilon)
		}
		fmt.Fprintf(&b, "%8.3g %12.4g %12s\n", row.Epsilon, row.LSISkew, ratio)
	}
	return b.String()
}

// Lemma1Config parameterizes the invariant-subspace stability experiment:
// a synthetic matrix with singular values clustered near σ₁ for the top k
// and near 0 for the rest (the lemma's hypothesis), perturbed by random F
// with ‖F‖₂ = ε.
type Lemma1Config struct {
	N        int // matrix is N×N
	K        int
	TopSigma []float64 // length K, the clustered top values
	LowSigma []float64 // trailing values near zero
	Epsilons []float64
	Trials   int
	Seed     int64
}

// DefaultLemma1Config mirrors Lemma 4's normalized setting (top values in
// [19/20·σ₁, σ₁], trailing below σ₁/20) at σ₁ = 1.
func DefaultLemma1Config() Lemma1Config {
	return Lemma1Config{
		N: 60, K: 3,
		TopSigma: []float64{1.0, 0.975, 0.95},
		LowSigma: []float64{0.05, 0.04, 0.03},
		Epsilons: []float64{0.001, 0.005, 0.01, 0.02, 0.05},
		Trials:   5,
		Seed:     4,
	}
}

// Lemma1Row is one ε's averaged measurement.
type Lemma1Row struct {
	Epsilon   float64
	MeanGNorm float64 // mean ‖G‖₂ over trials
	Ratio     float64 // MeanGNorm / Epsilon — Lemma 4 bounds this by 9
}

// Lemma1Result is the sweep output.
type Lemma1Result struct {
	Config Lemma1Config
	Rows   []Lemma1Row
}

// RunLemma1 sweeps perturbation sizes and reports the invariant-subspace
// residual ‖G‖₂ in U′ₖ = Uₖ·R + G.
func RunLemma1(cfg Lemma1Config) (*Lemma1Result, error) {
	if cfg.K != len(cfg.TopSigma) {
		return nil, fmt.Errorf("experiments: K=%d but %d top singular values", cfg.K, len(cfg.TopSigma))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sig := append(append([]float64(nil), cfg.TopSigma...), cfg.LowSigma...)
	a := randomWithSpectrum(cfg.N, cfg.N, sig, rng)
	uk, err := perturb.TopKBasis(a, cfg.K)
	if err != nil {
		return nil, err
	}
	out := &Lemma1Result{Config: cfg}
	for _, eps := range cfg.Epsilons {
		var sum float64
		for trial := 0; trial < cfg.Trials; trial++ {
			f, err := perturb.RandomWithNorm2(cfg.N, cfg.N, eps, rng)
			if err != nil {
				return nil, err
			}
			ukp, err := perturb.TopKBasis(mat.AddMat(a, f), cfg.K)
			if err != nil {
				return nil, err
			}
			al, err := perturb.Align(uk, ukp, rng)
			if err != nil {
				return nil, err
			}
			sum += al.GNorm2
		}
		mean := sum / float64(cfg.Trials)
		out.Rows = append(out.Rows, Lemma1Row{Epsilon: eps, MeanGNorm: mean, Ratio: mean / eps})
	}
	return out, nil
}

// Table renders the sweep.
func (r *Lemma1Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Lemma 1/4: invariant subspace residual ‖G‖₂ under ‖F‖₂ = eps (bound: ‖G‖₂ ≤ 9eps)\n")
	fmt.Fprintf(&b, "%10s %14s %12s\n", "eps", "mean ‖G‖₂", "‖G‖₂/eps")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10.4g %14.4g %12.3g\n", row.Epsilon, row.MeanGNorm, row.Ratio)
	}
	return b.String()
}

// randomWithSpectrum builds an r×c matrix with prescribed leading singular
// values and random orthonormal factors.
func randomWithSpectrum(r, c int, sig []float64, rng *rand.Rand) *mat.Dense {
	k := len(sig)
	gu := mat.NewDense(r, k)
	for i := range gu.RawData() {
		gu.RawData()[i] = rng.NormFloat64()
	}
	u, _ := mat.QR(gu)
	gv := mat.NewDense(c, k)
	for i := range gv.RawData() {
		gv.RawData()[i] = rng.NormFloat64()
	}
	v, _ := mat.QR(gv)
	us := u.Clone()
	for i := 0; i < r; i++ {
		row := us.Row(i)
		for j := 0; j < k; j++ {
			row[j] *= sig[j]
		}
	}
	return mat.MulBT(us, v)
}
