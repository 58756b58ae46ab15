package svd

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/sparse"
)

// The matrices below are all tall × narrow with tall > 2·panelRows of
// mat's panel reductions and tall·narrow·q above every parallel threshold,
// so the worker-count sweep really runs the goroutine paths. Each
// generator also returns a small matrix with the same nonzero singular
// values for the Jacobi reference, which is far too slow on the big one
// under the race detector.
const (
	propTall   = 1100
	propNarrow = 120
)

// clusteredSpectrum is the document-term matrix (documents as rows) of a
// pure ε-separable corpus with equal-sized topics: Theorem 2's regime, k
// nearly equal top singular values over a noise floor.
func clusteredSpectrum(t *testing.T) (a, small *mat.Dense, k int) {
	t.Helper()
	const topics = 6
	m, err := corpus.PureSeparableModel(corpus.SeparableConfig{
		NumTopics: topics, TermsPerTopic: propNarrow / topics, Epsilon: 0.05, MinLen: 40, MaxLen: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Sampler = &corpus.RoundRobinSampler{NumTopics: topics, MinLen: 40, MaxLen: 60}
	c, err := corpus.Generate(m, propTall, rand.New(rand.NewSource(301)))
	if err != nil {
		t.Fatal(err)
	}
	a = corpus.TermDocMatrix(c, corpus.CountWeighting).T().ToDense()
	_, r := mat.QR(a)
	return a, r, topics
}

// geometricSpectrum has singular values 0.8^i between random orthonormal
// factors.
func geometricSpectrum(t *testing.T) (a, small *mat.Dense, k int) {
	t.Helper()
	rng := rand.New(rand.NewSource(302))
	u, _ := mat.QR(randDense(propTall, propNarrow, rng))
	v, _ := mat.QR(randDense(propNarrow, propNarrow, rng))
	for i := 0; i < propTall; i++ {
		row := u.Row(i)
		for j := range row {
			row[j] *= math.Pow(0.8, float64(j))
		}
	}
	a = mat.MulBT(u, v)
	_, r := mat.QR(a)
	return a, r, 10
}

// rankDeficient repeats 12 random columns ten times over: rank 12 exactly,
// below q = k + 10 = 18, so the sketch's Gram matrix is singular and the
// orthonormalisation has to take its Gram-Schmidt path.
func rankDeficient(t *testing.T) (a, small *mat.Dense, k int) {
	t.Helper()
	const rank = 12
	base := randDense(propTall, rank, rand.New(rand.NewSource(303)))
	a = mat.NewDense(propTall, propNarrow)
	for i := 0; i < propTall; i++ {
		for j, row := 0, a.Row(i); j < propNarrow; j++ {
			row[j] = base.At(i, j%rank)
		}
	}
	// a = base·[I I … I], so its singular values are base's times √10.
	return a, base.Scale(math.Sqrt(propNarrow / rank)), 8
}

func TestRandomizedProperties(t *testing.T) {
	spectra := []struct {
		name string
		gen  func(*testing.T) (a, small *mat.Dense, k int)
	}{
		{"clustered", clusteredSpectrum},
		{"geometric", geometricSpectrum},
		{"rank-deficient", rankDeficient},
	}
	operators := []struct {
		name string
		op   func(tall *mat.Dense) BlockOp
	}{
		{"tall-csr", func(a *mat.Dense) BlockOp { return sparse.FromDense(a).Block() }},
		{"wide-csr", func(a *mat.Dense) BlockOp { return sparse.FromDense(a.T()).Block() }},
		{"dense", func(a *mat.Dense) BlockOp { return DenseOp{a} }},
	}
	for _, sp := range spectra {
		a, small, k := sp.gen(t)
		ref, err := Jacobi(small)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range operators {
			t.Run(sp.name+"/"+o.name, func(t *testing.T) {
				var first *Result
				for _, procs := range []int{1, 2, 8} {
					old := par.SetMaxProcs(procs)
					res, err := Randomized(o.op(a), k, RandomizedOptions{Rng: rand.New(rand.NewSource(304))})
					par.SetMaxProcs(old)
					if err != nil {
						t.Fatal(err)
					}
					if first == nil {
						first = res
						continue
					}
					if !sameBits(res.U.RawData(), first.U.RawData()) || !sameBits(res.S, first.S) ||
						!sameBits(res.V.RawData(), first.V.RawData()) {
						t.Fatalf("MaxProcs=%d: U, S, V not bitwise equal to the MaxProcs=1 result", procs)
					}
				}
				if len(first.S) != k {
					t.Fatalf("got %d triplets, want %d", len(first.S), k)
				}
				if !first.U.IsOrthonormalCols(1e-12) {
					t.Error("‖UᵀU − I‖ > 1e-12")
				}
				if !first.V.IsOrthonormalCols(1e-12) {
					t.Error("‖VᵀV − I‖ > 1e-12")
				}
				for i, s := range first.S {
					if math.Abs(s-ref.S[i]) > 1e-10*ref.S[i] {
						t.Errorf("sigma[%d] = %v, Jacobi = %v", i, s, ref.S[i])
					}
				}
			})
		}
	}
}

func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}
