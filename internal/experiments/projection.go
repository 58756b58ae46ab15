package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/randproj"
	"repro/internal/svd"
)

// JLConfig parameterizes the Johnson–Lindenstrauss validation (Lemma 2):
// random points in Rⁿ projected to a sweep of target dimensions l.
type JLConfig struct {
	N      int
	Points int
	Ls     []int
	Seed   int64
}

// DefaultJLConfig uses n = 1000 with l from 16 to 512.
func DefaultJLConfig() JLConfig {
	return JLConfig{N: 1000, Points: 40, Ls: []int{16, 32, 64, 128, 256, 512}, Seed: 5}
}

// SmallJLConfig is the test-sized variant.
func SmallJLConfig() JLConfig {
	return JLConfig{N: 200, Points: 15, Ls: []int{8, 64}, Seed: 5}
}

// JLRow is one target dimension's distortion measurement.
type JLRow struct {
	L      int
	Report randproj.DistortionReport
}

// JLResult is the sweep output.
type JLResult struct {
	Config JLConfig
	Rows   []JLRow
}

// RunJL sweeps projection dimensions and measures distortion.
func RunJL(cfg JLConfig) (*JLResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	pts := mat.NewDense(cfg.Points, cfg.N)
	for i := range pts.RawData() {
		pts.RawData()[i] = rng.NormFloat64()
	}
	out := &JLResult{Config: cfg}
	for _, l := range cfg.Ls {
		p, err := randproj.New(cfg.N, l, randproj.Orthonormal, rng)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, JLRow{L: l, Report: randproj.MeasureDistortion(pts, p)})
	}
	return out, nil
}

// Table renders the sweep.
func (r *JLResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Lemma 2 (Johnson–Lindenstrauss): distance-ratio distortion, n=%d, %s projections\n",
		r.Config.N, randproj.Orthonormal)
	fmt.Fprintf(&b, "%6s %10s %10s %10s %10s %12s\n", "l", "min", "max", "mean", "std", "max |ip err|")
	for _, row := range r.Rows {
		d := row.Report.DistanceRatio
		fmt.Fprintf(&b, "%6d %10.3g %10.3g %10.3g %10.3g %12.3g\n",
			row.L, d.Min, d.Max, d.Mean, d.Std, row.Report.InnerProductErr.Max)
	}
	return b.String()
}

// Theorem5Config parameterizes the two-step bound check on corpus matrices.
type Theorem5Config struct {
	Corpus  corpus.SeparableConfig
	NumDocs int
	K       int
	Ls      []int
	Seed    int64
}

// DefaultTheorem5Config sweeps l on a mid-sized corpus.
func DefaultTheorem5Config() Theorem5Config {
	return Theorem5Config{
		Corpus: corpus.SeparableConfig{
			NumTopics: 10, TermsPerTopic: 50, Epsilon: 0.05, MinLen: 50, MaxLen: 100,
		},
		NumDocs: 300,
		K:       10,
		Ls:      []int{25, 50, 100, 200},
		Seed:    6,
	}
}

// SmallTheorem5Config is the test-sized variant.
func SmallTheorem5Config() Theorem5Config {
	return Theorem5Config{
		Corpus: corpus.SeparableConfig{
			NumTopics: 3, TermsPerTopic: 15, Epsilon: 0.05, MinLen: 40, MaxLen: 60,
		},
		NumDocs: 40,
		K:       3,
		Ls:      []int{10, 30},
		Seed:    6,
	}
}

// Theorem5Row is one l's measurement. All quantities are squared Frobenius
// norms.
type Theorem5Row struct {
	L             int
	TwoStepResid  float64 // ‖A−B₂ₖ‖²_F
	DirectResid   float64 // ‖A−Aₖ‖²_F
	FrobSq        float64 // ‖A‖²_F
	RecoveredFrac float64 // (‖A‖²−‖A−B₂ₖ‖²) / (‖A‖²−‖A−Aₖ‖²)
}

// Theorem5Result is the sweep output.
type Theorem5Result struct {
	Config Theorem5Config
	Rows   []Theorem5Row
}

// RunTheorem5 sweeps projection dimensions and evaluates both sides of the
// theorem's inequality.
func RunTheorem5(cfg Theorem5Config) (*Theorem5Result, error) {
	model, err := corpus.PureSeparableModel(cfg.Corpus)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	c, err := corpus.Generate(model, cfg.NumDocs, rng)
	if err != nil {
		return nil, err
	}
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	out := &Theorem5Result{Config: cfg}
	for _, l := range cfg.Ls {
		ts, err := randproj.NewTwoStep(a, cfg.K, l, randproj.TwoStepOptions{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		lhs, direct, frobSq, err := ts.Theorem5Residual(a, cfg.K)
		if err != nil {
			return nil, err
		}
		row := Theorem5Row{L: l, TwoStepResid: lhs, DirectResid: direct, FrobSq: frobSq}
		if frobSq > direct {
			row.RecoveredFrac = (frobSq - lhs) / (frobSq - direct)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Table renders the sweep.
func (r *Theorem5Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Theorem 5: ‖A−B₂ₖ‖²_F vs ‖A−Aₖ‖²_F + 2eps‖A‖²_F (k=%d)\n", r.Config.K)
	fmt.Fprintf(&b, "%6s %14s %14s %12s %14s\n", "l", "‖A−B₂ₖ‖²", "‖A−Aₖ‖²", "‖A‖²", "recovered")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6d %14.6g %14.6g %12.6g %13.1f%%\n",
			row.L, row.TwoStepResid, row.DirectResid, row.FrobSq, 100*row.RecoveredFrac)
	}
	return b.String()
}

// RuntimeConfig parameterizes the Section 5 running-time comparison. The
// paper's accounting charges direct LSI O(mnc) — the cost of computing the
// SVD of A — and the two-step method O(ml(l+c)). We time three methods:
//
//   - full: dense SVD of A (the paper's direct-LSI cost model);
//   - lanczos: truncated rank-k Lanczos on sparse A (the modern baseline,
//     already sub-O(mnc); included so the comparison is honest);
//   - two-step: random projection to l dims + rank-2k dense SVD of B.
type RuntimeConfig struct {
	Corpora []corpus.SeparableConfig
	NumDocs []int
	K       int
	L       int
	Seed    int64
}

// DefaultRuntimeConfig sweeps vocabulary size upward to expose the
// asymptotic gap.
func DefaultRuntimeConfig() RuntimeConfig {
	mk := func(topics, terms int) corpus.SeparableConfig {
		return corpus.SeparableConfig{
			NumTopics: topics, TermsPerTopic: terms, Epsilon: 0.05, MinLen: 50, MaxLen: 100,
		}
	}
	return RuntimeConfig{
		Corpora: []corpus.SeparableConfig{mk(10, 50), mk(10, 100), mk(20, 100), mk(20, 200)},
		NumDocs: []int{300, 300, 500, 500},
		K:       10,
		L:       100,
		Seed:    7,
	}
}

// RuntimeRow is one size's timing.
type RuntimeRow struct {
	Terms, Docs   int
	FullMillis    float64 // dense SVD of A; 0 when skipped
	DirectMillis  float64 // truncated Lanczos rank-k
	TwoStepMillis float64
	// SpeedupVsFull is FullMillis/TwoStepMillis (0 when full was skipped) —
	// the paper's claimed asymptotic win.
	SpeedupVsFull float64
	// EnergyRatio is Σλᵢ²/Σσᵢ² over the top k values: the ratio of spectral
	// energy captured by the projected matrix B to that of A. Corollary 4
	// bounds it below by ≈ (1−ε); tail energy folded into l dimensions can
	// push it above 1.
	EnergyRatio float64
}

// RuntimeResult is the sweep output.
type RuntimeResult struct {
	Config RuntimeConfig
	Rows   []RuntimeRow
}

// RunRuntime times direct truncated SVD against the two-step method on a
// sweep of matrix sizes.
func RunRuntime(cfg RuntimeConfig) (*RuntimeResult, error) {
	if len(cfg.Corpora) != len(cfg.NumDocs) {
		return nil, fmt.Errorf("experiments: %d corpora but %d doc counts", len(cfg.Corpora), len(cfg.NumDocs))
	}
	out := &RuntimeResult{Config: cfg}
	for i, cc := range cfg.Corpora {
		model, err := corpus.PureSeparableModel(cc)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		c, err := corpus.Generate(model, cfg.NumDocs[i], rng)
		if err != nil {
			return nil, err
		}
		a := corpus.TermDocMatrix(c, corpus.CountWeighting)

		start := time.Now()
		if _, err := svd.Decompose(a.ToDense()); err != nil {
			return nil, err
		}
		fullMs := float64(time.Since(start).Microseconds()) / 1000

		start = time.Now()
		direct, err := Lanczos(a, cfg.K, LanczosOptions{
			Reorthogonalize: true, Rng: rand.New(rand.NewSource(cfg.Seed)),
		})
		if err != nil {
			return nil, err
		}
		directMs := float64(time.Since(start).Microseconds()) / 1000

		start = time.Now()
		ts, err := randproj.NewTwoStep(a, cfg.K, cfg.L, randproj.TwoStepOptions{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		twoMs := float64(time.Since(start).Microseconds()) / 1000

		row := RuntimeRow{
			Terms: cc.NumTerms(), Docs: cfg.NumDocs[i],
			FullMillis: fullMs, DirectMillis: directMs, TwoStepMillis: twoMs,
		}
		if twoMs > 0 && fullMs > 0 {
			row.SpeedupVsFull = fullMs / twoMs
		}
		// Compare spectral energy: Corollary 4 says the top singular values
		// of B capture almost all of ‖Aₖ‖²_F.
		sb := twoStepSigmas(ts, cfg.K)
		var eb, ea float64
		for j := 0; j < cfg.K && j < len(direct.S) && j < len(sb); j++ {
			eb += sb[j] * sb[j]
			ea += direct.S[j] * direct.S[j]
		}
		if ea > 0 {
			row.EnergyRatio = eb / ea
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// twoStepSigmas extracts the singular values of the projected matrix B from
// a two-step index (the norms of the doc-space columns of Vₖ·Dₖ recover
// them, since V has orthonormal columns).
func twoStepSigmas(ts *randproj.TwoStep, k int) []float64 {
	dv := ts.DocVectors() // m×r, columns scaled by σ
	_, r := dv.Dims()
	if k > r {
		k = r
	}
	out := make([]float64, k)
	for j := 0; j < k; j++ {
		out[j] = mat.Norm(dv.Col(j))
	}
	return out
}

// Table renders the timing sweep.
func (r *RuntimeResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 5 running time: full SVD (paper's O(mnc) direct-LSI cost) vs rank-%d Lanczos vs two-step (l=%d)\n",
		r.Config.K, r.Config.L)
	fmt.Fprintf(&b, "%8s %6s %10s %12s %12s %10s %13s\n",
		"terms", "docs", "full ms", "lanczos ms", "two-step ms", "speedup", "energy ratio")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d %6d %10.1f %12.2f %12.2f %9.1fx %13.3f\n",
			row.Terms, row.Docs, row.FullMillis, row.DirectMillis, row.TwoStepMillis,
			row.SpeedupVsFull, row.EnergyRatio)
	}
	return b.String()
}
