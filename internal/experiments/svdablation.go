package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/corpus"
	"repro/internal/sparse"
	"repro/internal/svd"
)

// LanczosDimAblationResult measures how the Golub–Kahan–Lanczos engine's
// accuracy depends on the bidiagonalization dimension p relative to the
// requested rank k — the "Lanczos dimension" ablation behind DESIGN.md §12's engine choice. At
// p = k the Krylov space barely contains the wanted invariant subspace;
// accuracy improves rapidly with the extra dimensions.
type LanczosDimAblationResult struct {
	K    int
	Rows []LanczosDimRow
}

// LanczosDimRow is one dimension's outcome.
type LanczosDimRow struct {
	P         int
	MaxRelErr float64 // vs dense reference over the top-k singular values
}

// RunLanczosDimAblation sweeps p on a corpus-model matrix.
func RunLanczosDimAblation(seed int64) (*LanczosDimAblationResult, error) {
	a, ref, err := ablationMatrix(seed)
	if err != nil {
		return nil, err
	}
	const k = 5
	out := &LanczosDimAblationResult{K: k}
	for _, p := range []int{k, k + 3, k + 10, 2*k + 20} {
		res, err := Lanczos(a, k, LanczosOptions{
			Dim:             p,
			Reorthogonalize: true,
			Rng:             rand.New(rand.NewSource(seed)),
		})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, LanczosDimRow{P: p, MaxRelErr: maxRelErr(res.S, ref.S, k)})
	}
	return out, nil
}

// Table renders the sweep.
func (r *LanczosDimAblationResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: Lanczos dimension p vs top-%d accuracy (dense reference)\n", r.K)
	fmt.Fprintf(&b, "%6s %14s\n", "p", "max rel err")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6d %14.3g\n", row.P, row.MaxRelErr)
	}
	return b.String()
}

// RandomizedParamAblationResult measures the randomized engine's accuracy
// against its two knobs: power iterations and oversampling.
type RandomizedParamAblationResult struct {
	K    int
	Rows []RandomizedParamRow
}

// RandomizedParamRow is one (power, oversample) cell.
type RandomizedParamRow struct {
	PowerIters int
	Oversample int
	MaxRelErr  float64
}

// RunRandomizedParamAblation sweeps the randomized-SVD parameters.
func RunRandomizedParamAblation(seed int64) (*RandomizedParamAblationResult, error) {
	a, ref, err := ablationMatrix(seed)
	if err != nil {
		return nil, err
	}
	const k = 5
	out := &RandomizedParamAblationResult{K: k}
	for _, power := range []int{1, 2, 6} {
		for _, over := range []int{2, 10} {
			res, err := svd.Randomized(a.Block(), k, svd.RandomizedOptions{
				PowerIters: power,
				Oversample: over,
				Rng:        rand.New(rand.NewSource(seed)),
			})
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, RandomizedParamRow{
				PowerIters: power, Oversample: over,
				MaxRelErr: maxRelErr(res.S, ref.S, k),
			})
		}
	}
	return out, nil
}

// Table renders the sweep.
func (r *RandomizedParamAblationResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: randomized SVD power iterations × oversampling vs top-%d accuracy\n", r.K)
	fmt.Fprintf(&b, "%8s %12s %14s\n", "power", "oversample", "max rel err")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d %12d %14.3g\n", row.PowerIters, row.Oversample, row.MaxRelErr)
	}
	return b.String()
}

// The SVD ablations' corpus: ablationDocs documents of a 5-topic model.
var ablationCorpus = corpus.SeparableConfig{
	NumTopics: 5, TermsPerTopic: 30, Epsilon: 0.05, MinLen: 40, MaxLen: 80,
}

const ablationDocs = 120

// ablationMatrix builds the shared corpus matrix and its dense reference
// decomposition.
func ablationMatrix(seed int64) (*sparse.CSR, *svd.Result, error) {
	_, a, err := samplePure(ablationCorpus, ablationDocs, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, nil, err
	}
	ref, err := svd.Decompose(a.ToDense())
	if err != nil {
		return nil, nil, err
	}
	return a, ref, nil
}

// maxRelErr returns the worst relative singular-value error over the top
// k, +Inf when got has fewer than k values.
func maxRelErr(got, ref []float64, k int) float64 {
	var worst float64
	for i := 0; i < k; i++ {
		if i >= len(got) {
			return math.Inf(1)
		}
		if ref[i] > 0 {
			rel := math.Abs(got[i]-ref[i]) / ref[i]
			if rel > worst {
				worst = rel
			}
		}
	}
	return worst
}
