package svd

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/sparse"
)

func benchMatrix(b *testing.B, r, c int) *mat.Dense {
	b.Helper()
	rng := rand.New(rand.NewSource(211))
	m := mat.NewDense(r, c)
	d := m.RawData()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return m
}

func BenchmarkDecompose100x100(b *testing.B) {
	m := benchMatrix(b, 100, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompose400x200(b *testing.B) {
	m := benchMatrix(b, 400, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomizedTop10Of400x200(b *testing.B) {
	m := benchMatrix(b, 400, 200)
	op := DenseOp{m}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Randomized(op, 10, RandomizedOptions{
			Rng: rand.New(rand.NewSource(7)),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSparseByRow builds a large sparse operator shape (rows×cols,
// ~nnzPerRow nonzeros per row) for the block-multiply benchmarks.
func benchSparseByRow(b *testing.B, rows, cols, nnzPerRow int) *sparse.CSR {
	b.Helper()
	rng := rand.New(rand.NewSource(212))
	coo := sparse.NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		for k := 0; k < nnzPerRow; k++ {
			coo.Add(i, rng.Intn(cols), rng.NormFloat64())
		}
	}
	return coo.ToCSR()
}

// The serial/parallel pair below times subspace iteration at k=50 on a
// large sparse matrix. Randomized's block products, Gram reduction and
// triangular solve all fan out through par; forcing par.SetMaxProcs(1)
// runs the same arithmetic on one goroutine for comparison.

func BenchmarkRandomizedK50Serial(b *testing.B) {
	m := benchSparseByRow(b, 20000, 4000, 20)
	old := par.SetMaxProcs(1)
	defer par.SetMaxProcs(old)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Randomized(m.Block(), 50, RandomizedOptions{
			PowerIters: 2, Rng: rand.New(rand.NewSource(7)),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomizedK50Parallel(b *testing.B) {
	m := benchSparseByRow(b, 20000, 4000, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Randomized(m.Block(), 50, RandomizedOptions{
			PowerIters: 2, Rng: rand.New(rand.NewSource(7)),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymEigen200(b *testing.B) {
	m := benchMatrix(b, 200, 200)
	// Symmetrize.
	sym := mat.AddMat(m, m.T()).Scale(0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SymEigen(sym); err != nil {
			b.Fatal(err)
		}
	}
}

// ledgerShapeMatrix is the term-document matrix of the repository
// benchmark's default scale (bench/spec.go): the paper's pure ε-separable
// model, 64 topics × 25 terms, 51,200 documents of 50–100 tokens dealt
// round-robin — 1,600 × 51,200 with ~1.56 M nonzeros.
func ledgerShapeMatrix(b testing.TB) *sparse.CSR { return separableMatrix(b, 25, 800) }

// separableMatrix is ledgerShapeMatrix's model with termsPerTopic terms and
// docsPerTopic documents a topic: 64·termsPerTopic × 64·docsPerTopic.
func separableMatrix(b testing.TB, termsPerTopic, docsPerTopic int) *sparse.CSR {
	b.Helper()
	const topics, minLen, maxLen = 64, 50, 100
	m, err := corpus.PureSeparableModel(corpus.SeparableConfig{
		NumTopics: topics, TermsPerTopic: termsPerTopic, Epsilon: 0.1, MinLen: minLen, MaxLen: maxLen,
	})
	if err != nil {
		b.Fatal(err)
	}
	m.Sampler = &corpus.RoundRobinSampler{NumTopics: topics, MinLen: minLen, MaxLen: maxLen}
	c, err := corpus.Generate(m, topics*docsPerTopic, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return corpus.TermDocMatrix(c, corpus.CountWeighting)
}

// benchQ is the sketch width of a rank-64 build: q = k + 10.
const benchQ = 64 + 10

// benchRank64 times Randomized at rank 64 on m, transpose included, on
// the route the rule picks.
func benchRank64(b *testing.B, m *sparse.CSR) { benchRoute(b, m, gramPays) }

// benchRoute is benchRank64 on the route gram picks.
func benchRoute(b *testing.B, m *sparse.CSR, gram func(rows, cols, q int) bool) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := randomized(m.Block(), 64, RandomizedOptions{Rng: rand.New(rand.NewSource(7))}, gram); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// BenchmarkRandomizedLedgerShape is retrieval.Build's SVD at the ledger's
// scale: rank 64 (q = 74, six power iterations) on the matrix above,
// transpose included. 1,600² ≤ 51,200·74, so the engine takes the Gram
// route; after the loop the benchmark times that route's own work:
// gram_ms, building G = A·Aᵀ once, and GFLOP/s, the rate of a G·Y product
// (2·rows²·q flops) into a recycled buffer, the median of five.
func BenchmarkRandomizedLedgerShape(b *testing.B) {
	m := ledgerShapeMatrix(b)
	benchRank64(b, m)
	start := time.Now()
	g := m.Block().Gram()
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/1e6, "gram_ms")
	rows := g.Rows()
	y, gy := benchMatrix(b, rows, benchQ), mat.NewDense(rows, benchQ)
	var secs [5]float64
	for i := range secs {
		start = time.Now()
		mat.MulInto(gy, g, y)
		secs[i] = time.Since(start).Seconds()
	}
	slices.Sort(secs[:])
	b.ReportMetric(2*float64(rows*rows*benchQ)/1e9/secs[len(secs)/2], "GFLOP/s")
}

// BenchmarkRandomizedShardShape is the same build on a shard of a sharded
// workload: 1,600 × 25,600, where 1,600² ≤ 3·25,600·74 puts the engine on
// the Gram route too. GB/s is the effective rate of the sparse route's
// block products, which the tail still runs (Bᵀ = Aᵀ·Y) and compactions
// run throughout — one A·Z and one Aᵀ·Y timed after the loop, against the
// nnz·q·8 bytes of dense operand each of them gathers.
func BenchmarkRandomizedShardShape(b *testing.B) {
	m := separableMatrix(b, 25, 400)
	benchRank64(b, m)
	op := m.Block()
	rows, cols := op.Dims()
	y, z := mat.NewDense(rows, benchQ), benchMatrix(b, cols, benchQ)
	start := time.Now()
	op.MulDenseInto(y, z)
	op.TMulDenseInto(z, y)
	gb := 2 * float64(m.NNZ()) * benchQ * 8 / 1e9
	b.ReportMetric(gb/time.Since(start).Seconds(), "GB/s")
}

// BenchmarkRandomizedRouteCrossover times both routes of the rank-64 build
// on either side of the route rule, so its constant can be re-derived: at
// 1,600 terms × {6,400, 12,800, 25,600} documents, rows²/(cols·q) is 5.4,
// 2.7 and 1.35, and 3,200 × 51,200 repeats 2.7 at four times the squared
// vocabulary. The ratio at which the sparse route's time over the Gram
// route's crosses 1 is the rule's constant: ~3.1 at 1,600 terms, ~3.9 at
// 3,200, whose documents carry more nonzeros; the rule takes 3
// (EXPERIMENTS.md "Sharded builds on the Gram route").
func BenchmarkRandomizedRouteCrossover(b *testing.B) {
	for _, sh := range []struct{ terms, docs int }{{25, 100}, {25, 200}, {25, 400}, {50, 800}} {
		m := separableMatrix(b, sh.terms, sh.docs)
		rows, cols := m.Dims()
		for _, r := range []struct {
			name string
			gram bool
		}{{"sparse", false}, {"gram", true}} {
			b.Run(fmt.Sprintf("%dx%d/%s", rows, cols, r.name), func(b *testing.B) {
				benchRoute(b, m, func(int, int, int) bool { return r.gram })
				b.ReportMetric(float64(rows*rows)/float64(cols*benchQ), "rows²/cols·q")
			})
		}
	}
}
