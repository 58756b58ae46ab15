package sparse

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
)

func benchCSR(b *testing.B, r, c int, density float64) *CSR {
	b.Helper()
	rng := rand.New(rand.NewSource(221))
	coo := NewCOO(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				coo.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return coo.ToCSR()
}

func BenchmarkMulVec2000x1000(b *testing.B) {
	m := benchCSR(b, 2000, 1000, 0.04) // ~paper-scale term-doc density
	x := make([]float64, 1000)
	for i := range x {
		x[i] = float64(i % 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(x)
	}
}

func BenchmarkMulTVec2000x1000(b *testing.B) {
	m := benchCSR(b, 2000, 1000, 0.04)
	x := make([]float64, 2000)
	for i := range x {
		x[i] = float64(i % 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulTVec(x)
	}
}

func BenchmarkTMulDenseGram(b *testing.B) {
	// The Gram-matrix computation of the Table 1 experiment.
	m := benchCSR(b, 2000, 500, 0.04)
	d := m.ToDense()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TMulDense(d)
	}
}

// benchCSRByRow builds an r×c matrix with ~nnzPerRow nonzeros per row by
// direct column sampling, so paper-scale shapes (50k×10k) set up in O(nnz)
// instead of O(r·c).
func benchCSRByRow(b *testing.B, r, c, nnzPerRow int) *CSR {
	b.Helper()
	rng := rand.New(rand.NewSource(223))
	coo := NewCOO(r, c)
	for i := 0; i < r; i++ {
		for k := 0; k < nnzPerRow; k++ {
			coo.Add(i, rng.Intn(c), rng.NormFloat64())
		}
	}
	return coo.ToCSR()
}

// The large-shape benchmarks below are the Section 5 scale target: a
// 50k-term × 10k-document corpus at ~20 terms per document. CI's
// bench-smoke job compiles and runs them once; the transposed product's
// speedup is read off a multi-core `go test -bench 'MulTVec.*50kx10k'` run.

func BenchmarkMulVecSerial50kx10k(b *testing.B) {
	m := benchCSRByRow(b, 50000, 10000, 20)
	x := make([]float64, 10000)
	for i := range x {
		x[i] = float64(i % 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(x)
	}
}

func BenchmarkMulTVecSerial50kx10k(b *testing.B) {
	m := benchCSRByRow(b, 50000, 10000, 20)
	x := make([]float64, 50000)
	for i := range x {
		x[i] = float64(i % 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulTVec(x)
	}
}

func BenchmarkMulDenseSerialBlock50(b *testing.B) {
	m := benchCSRByRow(b, 20000, 4000, 20)
	blk := mat.NewDense(4000, 50)
	d := blk.RawData()
	rng := rand.New(rand.NewSource(224))
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulDense(blk)
	}
}

func BenchmarkMulDenseParallelBlock50(b *testing.B) {
	m := benchCSRByRow(b, 20000, 4000, 20)
	blk := mat.NewDense(4000, 50)
	d := blk.RawData()
	rng := rand.New(rand.NewSource(224))
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	dst := mat.NewDense(20000, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulDenseInto(dst, blk)
	}
}

func BenchmarkBlockOpTMulDenseGram(b *testing.B) {
	// Parallel counterpart of BenchmarkTMulDenseGram.
	m := benchCSR(b, 2000, 500, 0.04)
	d := m.ToDense()
	op := m.Block()
	dst := mat.NewDense(500, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.TMulDenseInto(dst, d)
	}
}

func BenchmarkCOOToCSR(b *testing.B) {
	rng := rand.New(rand.NewSource(222))
	type entry struct {
		i, j int
		v    float64
	}
	entries := make([]entry, 100000)
	for k := range entries {
		entries[k] = entry{rng.Intn(2000), rng.Intn(1000), rng.NormFloat64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coo := NewCOO(2000, 1000)
		for _, e := range entries {
			coo.Add(e.i, e.j, e.v)
		}
		coo.ToCSR()
	}
}

func BenchmarkTranspose(b *testing.B) {
	m := benchCSR(b, 2000, 1000, 0.04)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.T()
	}
}
