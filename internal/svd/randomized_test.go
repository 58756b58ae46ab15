package svd

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/race"
	"repro/internal/sparse"
)

// The matrices below are all tall × narrow with tall > 2·panelRows of
// mat's panel reductions and tall·narrow·q above every parallel threshold,
// so the worker-count sweep really runs the goroutine paths. Each
// generator also returns a small matrix with the same nonzero singular
// values for the dense reference, Decompose (held against the Jacobi SVD
// in engines_test.go), which is far too slow on the big one under the race
// detector.
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

// gradedSpectrum has singular values 10^(−i/4), i = 0…32 — κ = 1e8, rank
// 33 of 120 — between random orthonormal factors. With k = 20 the sketch
// has 30 columns whose Gram matrix has pivots down to ~1e-14 of its
// diagonal, far below mat's Cholesky breakdown threshold: every
// orthonormalisation of the iteration takes the Gram-Schmidt route (which
// mat.TestOrthoInPlace shows is what a breakdown means). The reference
// singular values are exact by construction.
func gradedSpectrum(t *testing.T) (a, small *mat.Dense, k int) {
	t.Helper()
	const rank = 33
	rng := rand.New(rand.NewSource(305))
	u, _ := mat.QR(randDense(propTall, rank, rng))
	v, _ := mat.QR(randDense(propNarrow, rank, rng))
	small = mat.NewDense(rank, rank)
	for j := 0; j < rank; j++ {
		small.Set(j, j, math.Pow(10, -float64(j)/4))
	}
	return mat.MulBT(mat.Mul(u, small), v), small, 20
}

func TestRandomizedProperties(t *testing.T) {
	spectra := []struct {
		name string
		gen  func(*testing.T) (a, small *mat.Dense, k int)
		// sigmaTol bounds |σᵢ − reference|: relative to σᵢ itself where the
		// retained values are of one magnitude, to σ₁ where they span five
		// (no backward-stable SVD resolves σ₂₀ = 2e-5·σ₁ to ten of its own
		// digits).
		sigmaTol func(ref []float64, i int) float64
	}{
		{"clustered", clusteredSpectrum, func(ref []float64, i int) float64 { return 1e-10 * ref[i] }},
		{"geometric", geometricSpectrum, func(ref []float64, i int) float64 { return 1e-10 * ref[i] }},
		{"rank-deficient", rankDeficient, func(ref []float64, i int) float64 { return 1e-10 * ref[i] }},
		{"graded", gradedSpectrum, func(ref []float64, i int) float64 { return 1e-9 * ref[0] }},
	}
	tallCSR := func(a *mat.Dense) BlockOp { return sparse.FromDense(a).Block() }
	wideCSR := func(a *mat.Dense) BlockOp { return sparse.FromDense(a.T()).Block() }
	// The wide operators are 120 rows against 1,100 columns, so rows² is
	// below cols·q for every k here and they take the Gram route; the
	// sparse route runs the wide CSR through the unexported entry point.
	operators := []struct {
		name     string
		op       func(tall *mat.Dense) BlockOp
		engine   func(BlockOp, int, RandomizedOptions) (*Result, error)
		wantGram int // Gram calls: 1 on the Gram route
	}{
		{"tall-csr", tallCSR, Randomized, 0},
		{"wide-csr", wideCSR, Randomized, 1},
		{"wide-csr-sparse-route", wideCSR, sparseRoute, 0},
		{"dense", func(a *mat.Dense) BlockOp { return DenseOp{a} }, Randomized, 0},
		{"wide-dense", func(a *mat.Dense) BlockOp { return DenseOp{a.T()} }, Randomized, 1},
	}
	for _, sp := range spectra {
		a, small, k := sp.gen(t)
		ref, err := Decompose(small)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range operators {
			t.Run(sp.name+"/"+o.name, func(t *testing.T) {
				var first *Result
				for _, procs := range []int{1, 2, 8} {
					op := &gramCounter{BlockOp: o.op(a)}
					old := par.SetMaxProcs(procs)
					res, err := o.engine(op, k, RandomizedOptions{Rng: rand.New(rand.NewSource(304))})
					par.SetMaxProcs(old)
					if err != nil {
						t.Fatal(err)
					}
					if op.calls != o.wantGram {
						t.Fatalf("%d Gram calls, want %d", op.calls, o.wantGram)
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
					if math.Abs(s-ref.S[i]) > sp.sigmaTol(ref.S, i) {
						t.Errorf("sigma[%d] = %v, reference = %v", i, s, ref.S[i])
					}
				}
			})
		}
	}
}

// TestRandomizedLedgerShape runs the engine where retrieval.Build runs it
// in the repository benchmark — rank 64 of the 1,600 × 51,200 term-document
// matrix, 64 near-equal singular values over a noise floor — and holds the
// result to the contracts the single-pass power iterations could have
// bent: U and V orthonormal to 1e-12, identical bits for every worker
// count, and singular triplets that satisfy A·vᵢ = σᵢ·uᵢ and Aᵀ·uᵢ = σᵢ·vᵢ
// to 1e-9·σ₁. With orthonormal U and V those residuals bound each σᵢ's
// distance from a true singular value of A, which is what a comparison
// with Decompose would show; the dense decomposition itself is minutes of
// work at this size (TestRandomizedProperties makes that comparison on the
// same corpus model at 120 × 1,100).
func TestRandomizedLedgerShape(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("51,200-document build: seconds without the race detector, minutes with it")
	}
	a := ledgerShapeMatrix(t)
	var first *Result
	for _, procs := range []int{2, 1, 8} {
		old := par.SetMaxProcs(procs)
		res, err := Randomized(a.Block(), 64, RandomizedOptions{Rng: rand.New(rand.NewSource(7))})
		par.SetMaxProcs(old)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
		} else if !sameBits(res.U.RawData(), first.U.RawData()) || !sameBits(res.S, first.S) ||
			!sameBits(res.V.RawData(), first.V.RawData()) {
			t.Fatalf("MaxProcs=%d: U, S, V not bitwise equal to the MaxProcs=2 result", procs)
		}
	}
	if len(first.S) != 64 {
		t.Fatalf("got %d triplets, want 64", len(first.S))
	}
	if !first.U.IsOrthonormalCols(1e-12) {
		t.Error("‖UᵀU − I‖ > 1e-12")
	}
	if !first.V.IsOrthonormalCols(1e-12) {
		t.Error("‖VᵀV − I‖ > 1e-12")
	}
	us, vs := first.U.Clone(), first.V.Clone() // U·Σ, V·Σ
	for _, m := range []*mat.Dense{us, vs} {
		for i := 0; i < m.Rows(); i++ {
			for j, row := 0, m.Row(i); j < len(row); j++ {
				row[j] *= first.S[j]
			}
		}
	}
	tol := 1e-9 * first.S[0]
	if d := mat.SubMat(a.MulDense(first.V), us).MaxAbs(); d > tol {
		t.Errorf("max |A·V − U·Σ| = %g > 1e-9·σ₁", d)
	}
	if d := mat.SubMat(a.TMulDense(first.U), vs).MaxAbs(); d > tol {
		t.Errorf("max |Aᵀ·U − V·Σ| = %g > 1e-9·σ₁", d)
	}
}

// sparseRoute is Randomized kept off the Gram route whatever the shape.
func sparseRoute(op BlockOp, k int, opts RandomizedOptions) (*Result, error) {
	return randomized(op, k, opts, func(int, int, int) bool { return false })
}

// gramCounter is an operator that counts the engine's Gram calls: one on
// the Gram route, none on the sparse route.
type gramCounter struct {
	BlockOp
	calls int
}

func (g *gramCounter) Gram() *mat.Dense {
	g.calls++
	return g.BlockOp.Gram()
}

// TestRandomizedRoutesAgree runs both routes where the rule picks the Gram
// route: at the ledger shape (1,600² ≤ 3·51,200·74) and at a sharded
// workload's shard shape (1,600² ≤ 3·25,600·74). The singular values must
// agree to 1e-13 relative, and U and V must span the same subspaces — the
// largest principal angle θ between the two U (and the two V) has
// 1 − cos θ ≤ 1e-13, cos θ being the smallest singular value of U₁ᵀU₂.
func TestRandomizedRoutesAgree(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("51,200- and 25,600-document builds: seconds without the race detector, minutes with it")
	}
	for _, sh := range []struct {
		name         string
		docsPerTopic int
	}{{"ledger", 800}, {"shard", 400}} {
		t.Run(sh.name, func(t *testing.T) {
			routesAgree(t, separableMatrix(t, 25, sh.docsPerTopic))
		})
	}
}

func routesAgree(t *testing.T, a *sparse.CSR) {
	t.Helper()
	run := func(engine func(BlockOp, int, RandomizedOptions) (*Result, error), wantGram int) *Result {
		op := &gramCounter{BlockOp: a.Block()}
		res, err := engine(op, 64, RandomizedOptions{Rng: rand.New(rand.NewSource(7))})
		if err != nil {
			t.Fatal(err)
		}
		if op.calls != wantGram {
			t.Fatalf("%d Gram calls, want %d", op.calls, wantGram)
		}
		return res
	}
	gram, sp := run(Randomized, 1), run(sparseRoute, 0)
	var worst float64
	for i, s := range gram.S {
		d := math.Abs(s-sp.S[i]) / sp.S[i]
		worst = max(worst, d)
		if d > 1e-13 {
			t.Errorf("sigma[%d]: Gram route %v, sparse route %v (relative Δ %g)", i, s, sp.S[i], d)
		}
	}
	t.Logf("max relative Δσ %.2g", worst)
	for _, f := range []struct {
		name   string
		x1, x2 *mat.Dense
	}{{"U", gram.U, sp.U}, {"V", gram.V, sp.V}} {
		cos, err := Decompose(mat.MulT(f.x1, f.x2))
		if err != nil {
			t.Fatal(err)
		}
		d := 1 - cos.S[len(cos.S)-1]
		if d > 1e-13 {
			t.Errorf("%s: 1 − cos of the largest principal angle = %g > 1e-13", f.name, d)
		}
		t.Logf("%s: 1 − cos of the largest principal angle %.2g", f.name, d)
	}
}

// TestRandomizedGramRouteBoundary pins the route rule rows² ≤ 3·cols·q at
// its edge: 60 rows against 60 columns with q = k + 10 = 20 is
// 3,600 = 3·60·20 and takes the Gram route; a 61st row does not.
func TestRandomizedGramRouteBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(306))
	for _, c := range []struct{ rows, wantGram int }{{60, 1}, {61, 0}} {
		op := &gramCounter{BlockOp: DenseOp{randDense(c.rows, 60, rng)}}
		res, err := Randomized(op, 10, RandomizedOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if op.calls != c.wantGram {
			t.Errorf("%d × 60: %d Gram calls, want %d", c.rows, op.calls, c.wantGram)
		}
		if len(res.S) != 10 || !res.U.IsOrthonormalCols(1e-12) || !res.V.IsOrthonormalCols(1e-12) {
			t.Errorf("%d × 60: %d triplets, or U or V not orthonormal to 1e-12", c.rows, len(res.S))
		}
	}
}

// TestRandomizedCompactionShapesTakeSparseRoute holds the rule to the
// shapes of the repository benchmark's ingest_mixed workload (bench/spec.go
// at its default scale): a 2-shard rank-64 index (q = 74) over 1,600 terms,
// built on 46,080 documents, to which a writer adds the other 5,120. A
// compaction rebuilds only ingested documents — the built segments keep no
// raw documents — so its matrix is 1,600 × at most 5,120 even if every
// ingested document landed on one shard, in steps of the 128-document
// seal. Those stay on the sparse route, and the server's memory with them;
// the built shards (23,040 documents each) take the Gram route.
func TestRandomizedCompactionShapesTakeSparseRoute(t *testing.T) {
	const terms, q = 1600, 74
	for docs := 128; docs <= 5120; docs += 128 {
		if gramPays(terms, docs, q) {
			t.Errorf("a %d × %d compaction takes the Gram route", terms, docs)
		}
	}
	if !gramPays(terms, 46080/2, q) {
		t.Errorf("a %d × %d shard build takes the sparse route", terms, 46080/2)
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
