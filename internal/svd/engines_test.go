package svd_test

// The tests below run experiments.Jacobi (the reference Decompose is
// held against) and experiments.Lanczos beside this package's engines.
// internal/experiments imports package svd, so they live outside it;
// export_test.go lends them its helpers.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/experiments"
	"repro/internal/mat"
	"repro/internal/svd"
)

func TestDecomposeMatchesJacobiOnRandomMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	shapes := [][2]int{{5, 5}, {10, 4}, {4, 10}, {30, 17}, {17, 30}, {1, 5}, {5, 1}, {2, 2}}
	for _, sh := range shapes {
		a := svd.RandDense(sh[0], sh[1], rng)
		gr, err := svd.Decompose(a)
		if err != nil {
			t.Fatalf("%v: Decompose: %v", sh, err)
		}
		jc, err := experiments.Jacobi(a)
		if err != nil {
			t.Fatalf("%v: Jacobi: %v", sh, err)
		}
		svd.CheckSVD(t, a, gr, true, 1e-9)
		svd.CheckSVD(t, a, jc, true, 1e-9)
		if len(gr.S) != len(jc.S) {
			t.Fatalf("%v: rank mismatch %d vs %d", sh, len(gr.S), len(jc.S))
		}
		for i := range gr.S {
			if math.Abs(gr.S[i]-jc.S[i]) > 1e-8*(1+jc.S[0]) {
				t.Fatalf("%v: singular value %d: Golub-Reinsch %v vs Jacobi %v", sh, i, gr.S[i], jc.S[i])
			}
		}
	}
}

func TestLanczosMatchesDenseTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	a := svd.RandDense(40, 25, rng)
	full, err := svd.Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	k := 5
	lz, err := experiments.Lanczos(denseOp{a}, k, experiments.LanczosOptions{Reorthogonalize: true, Rng: rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}
	if len(lz.S) < k {
		t.Fatalf("Lanczos returned %d triplets, want %d", len(lz.S), k)
	}
	for i := 0; i < k; i++ {
		if math.Abs(lz.S[i]-full.S[i]) > 1e-8*(1+full.S[0]) {
			t.Fatalf("Lanczos sigma[%d] = %v, dense = %v", i, lz.S[i], full.S[i])
		}
	}
	svd.CheckSVD(t, a, lz, false, 0)
	// Singular vectors match up to sign.
	for i := 0; i < k; i++ {
		d := math.Abs(mat.Dot(lz.U.Col(i), full.U.Col(i)))
		if d < 1-1e-6 {
			t.Fatalf("Lanczos U[%d] misaligned with dense: |dot| = %v", i, d)
		}
	}
}

func TestTruncatedEnginesOnClusteredSpectrum(t *testing.T) {
	// Block-diagonal matrix with k equal blocks: top-k singular values are
	// all equal — the degenerate regime of Theorem 2. Block engines must
	// still recover an orthonormal basis spanning the top-k space.
	k, bs := 4, 6
	n := k * bs
	a := mat.NewDense(n, n)
	rng := rand.New(rand.NewSource(106))
	for b := 0; b < k; b++ {
		// Each block is 5·I plus small noise: every block contributes one
		// dominant singular value ≈ same magnitude.
		for i := 0; i < bs; i++ {
			for j := 0; j < bs; j++ {
				v := 1.0 + 0.01*rng.NormFloat64()
				a.Set(b*bs+i, b*bs+j, v)
			}
		}
	}
	full, err := svd.Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []struct {
		name string
		run  func() (*svd.Result, error)
	}{
		{"lanczos", func() (*svd.Result, error) {
			return experiments.Lanczos(denseOp{a}, k, experiments.LanczosOptions{Reorthogonalize: true, Rng: rand.New(rand.NewSource(8))})
		}},
		{"randomized", func() (*svd.Result, error) { return svd.Randomized(svd.DenseOp{M: a}, k, svd.RandomizedOptions{}) }},
	} {
		res, err := engine.run()
		if err != nil {
			t.Fatalf("%s: %v", engine.name, err)
		}
		if len(res.S) < k {
			t.Fatalf("%s: got %d triplets, want %d", engine.name, len(res.S), k)
		}
		for i := 0; i < k; i++ {
			if math.Abs(res.S[i]-full.S[i]) > 1e-6*(1+full.S[0]) {
				t.Fatalf("%s: sigma[%d] = %v, dense = %v", engine.name, i, res.S[i], full.S[i])
			}
		}
	}
}

func TestLanczosInvalidK(t *testing.T) {
	a := mat.Identity(3)
	if _, err := experiments.Lanczos(denseOp{a}, 0, experiments.LanczosOptions{}); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, err := svd.Randomized(svd.DenseOp{M: a}, -1, svd.RandomizedOptions{}); err == nil {
		t.Fatal("expected error for k=-1")
	}
	// k beyond rank clamps rather than failing.
	res, err := experiments.Lanczos(denseOp{a}, 10, experiments.LanczosOptions{Reorthogonalize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.S) > 3 {
		t.Fatalf("k clamp failed: %d triplets", len(res.S))
	}
}

func TestLanczosZeroMatrix(t *testing.T) {
	res, err := experiments.Lanczos(denseOp{mat.NewDense(5, 4)}, 2, experiments.LanczosOptions{Reorthogonalize: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.S {
		if s > 1e-10 {
			t.Fatalf("zero matrix gave sigma %v", s)
		}
	}
}

func TestGoldenRotationIsIsometry(t *testing.T) {
	// A rotation matrix has all singular values 1.
	th := 0.83
	a := mat.FromRows([][]float64{
		{math.Cos(th), -math.Sin(th)},
		{math.Sin(th), math.Cos(th)},
	})
	for _, engine := range []func(*mat.Dense) (*svd.Result, error){svd.Decompose, experiments.Jacobi} {
		res, err := engine(a)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range res.S {
			if math.Abs(s-1) > 1e-12 {
				t.Fatalf("rotation sigma[%d] = %v", i, s)
			}
		}
	}
}

func BenchmarkJacobi100x100(b *testing.B) {
	m := svd.RandDense(100, 100, rand.New(rand.NewSource(211)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Jacobi(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLanczosTop10Of400x200(b *testing.B) {
	m := svd.RandDense(400, 200, rand.New(rand.NewSource(211)))
	op := denseOp{m}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Lanczos(op, 10, experiments.LanczosOptions{
			Reorthogonalize: true, Rng: rand.New(rand.NewSource(7)),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// denseOp is a dense matrix as the Lanczos engine's operator.
type denseOp struct{ m *mat.Dense }

func (d denseOp) Dims() (int, int)              { return d.m.Dims() }
func (d denseOp) MulVec(x []float64) []float64  { return mat.MulVec(d.m, x) }
func (d denseOp) MulTVec(x []float64) []float64 { return mat.MulTVec(d.m, x) }
