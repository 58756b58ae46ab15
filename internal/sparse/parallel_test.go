package sparse

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/par"
)

// withProcs pins the par worker limit so the parallel kernels take their
// goroutine path even on single-CPU machines.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := par.SetMaxProcs(n)
	t.Cleanup(func() { par.SetMaxProcs(old) })
}

// parCSR builds a random matrix big enough to clear the parallel
// threshold (~40k nonzeros for 2000×500 at 4% density).
func parCSR(t *testing.T, r, c int, density float64, seed int64) *CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	coo := NewCOO(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				coo.Add(i, j, rng.NormFloat64())
			}
		}
	}
	m := coo.ToCSR()
	if m.NNZ() < parMinNNZ {
		t.Fatalf("test matrix has %d nonzeros, below the parallel threshold %d", m.NNZ(), parMinNNZ)
	}
	return m
}

func maxAbsDiff(a, b []float64) float64 {
	var mx float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > mx {
			mx = d
		}
	}
	return mx
}

func TestMulTVecParallelMatchesSerial(t *testing.T) {
	withProcs(t, 4)
	m := parCSR(t, 2000, 500, 0.04, 32)
	x := make([]float64, 2000)
	for i := range x {
		x[i] = math.Cos(float64(i))
	}
	got := m.MulTVecParallel(x)
	want := m.MulTVec(x)
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	if d := maxAbsDiff(got, want); d > 1e-10 {
		t.Fatalf("parallel MulTVec differs from serial by %g", d)
	}
}

func TestMulTVecParallelIsDeterministic(t *testing.T) {
	withProcs(t, 4)
	m := parCSR(t, 2000, 500, 0.04, 33)
	x := make([]float64, 2000)
	for i := range x {
		x[i] = 1.0 / float64(i+1)
	}
	first := m.MulTVecParallel(x)
	for trial := 0; trial < 10; trial++ {
		got := m.MulTVecParallel(x)
		for j := range first {
			if got[j] != first[j] {
				t.Fatalf("trial %d col %d: %v != %v — chunked reduction not deterministic", trial, j, got[j], first[j])
			}
		}
	}
}

func TestMulDenseParallelBitwiseMatchesSerial(t *testing.T) {
	withProcs(t, 4)
	m := parCSR(t, 2000, 500, 0.04, 34)
	rng := rand.New(rand.NewSource(35))
	b := mat.NewDense(500, 20)
	d := b.RawData()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	got := mat.NewDense(2000, 20)
	m.MulDenseInto(got, b)
	want := m.MulDense(b)
	if !mat.EqualApprox(got, want, 0) {
		t.Fatal("MulDenseInto not bitwise equal to MulDense")
	}
}

func TestBlockOpBitwiseMatchesSerialForAnyProcs(t *testing.T) {
	m := parCSR(t, 2000, 500, 0.04, 36)
	rng := rand.New(rand.NewSource(37))
	b := mat.NewDense(500, 20)
	c := mat.NewDense(2000, 20)
	for _, d := range [][]float64{b.RawData(), c.RawData()} {
		for i := range d {
			d[i] = rng.NormFloat64()
		}
	}
	wantMul, wantTMul := m.MulDense(b), m.TMulDense(c)
	for _, procs := range []int{1, 2, 8} {
		withProcs(t, procs)
		op := m.Block()
		if r, cc := op.Dims(); r != 2000 || cc != 500 {
			t.Fatalf("BlockOp dims %dx%d", r, cc)
		}
		// Recycled destinations arrive dirty; the products must overwrite.
		gotMul, gotTMul := c.Clone(), b.Clone()
		op.MulDenseInto(gotMul, b)
		op.TMulDenseInto(gotTMul, c)
		if !mat.EqualApprox(gotMul, wantMul, 0) {
			t.Fatalf("procs=%d: BlockOp.MulDenseInto not bitwise equal to MulDense", procs)
		}
		if !mat.EqualApprox(gotTMul, wantTMul, 0) {
			t.Fatalf("procs=%d: BlockOp.TMulDenseInto not bitwise equal to TMulDense", procs)
		}
	}
}

// TestBlockOpGram holds BlockOp.Gram to a dense A·Aᵀ on a terms × documents
// matrix with empty rows (terms no document uses) and empty columns (empty
// documents). Its 300 rows are several chunks of rowGrain, so MaxProcs 2
// and 8 take the goroutine path.
func TestBlockOpGram(t *testing.T) {
	const rows, cols = 300, 2000
	rng := rand.New(rand.NewSource(39))
	coo := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if i%7 != 3 && j%11 != 5 && rng.Float64() < 0.04 {
				coo.Add(i, j, rng.NormFloat64())
			}
		}
	}
	m := coo.ToCSR()
	a := m.ToDense()
	want := mat.MulBT(a, a)
	var first *mat.Dense
	for _, procs := range []int{1, 2, 8} {
		withProcs(t, procs)
		g := m.Block().Gram()
		if first == nil {
			first = g
		} else if !sameBits(g.RawData(), first.RawData()) {
			t.Fatalf("procs=%d: Gram not bitwise equal to the procs=1 result", procs)
		}
	}
	if d := mat.SubMat(first, want).MaxAbs(); d > 1e-12*want.MaxAbs() {
		t.Fatalf("max |G − A·Aᵀ| = %g > 1e-12·max|A·Aᵀ|", d)
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < i; j++ {
			if math.Float64bits(first.At(i, j)) != math.Float64bits(first.At(j, i)) {
				t.Fatalf("G[%d,%d] = %v but G[%d,%d] = %v: not exactly symmetric", i, j, first.At(i, j), j, i, first.At(j, i))
			}
		}
		if i%7 == 3 && mat.Norm(first.Row(i)) != 0 {
			t.Fatalf("row %d of A is empty but row %d of G is not", i, i)
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

func TestParallelSmallInputFallsBackToSerial(t *testing.T) {
	withProcs(t, 4)
	coo := NewCOO(5, 4)
	coo.Add(0, 1, 2)
	coo.Add(3, 2, -1)
	coo.Add(4, 3, 0.5)
	m := coo.ToCSR()
	y := []float64{1, -1, 2, -2, 3}
	if d := maxAbsDiff(m.MulTVecParallel(y), m.MulTVec(y)); d != 0 {
		t.Fatalf("small MulTVecParallel differs by %g", d)
	}
}

func TestParallelDimensionPanics(t *testing.T) {
	withProcs(t, 4)
	m := parCSR(t, 2000, 500, 0.04, 38)
	for name, fn := range map[string]func(){
		"MulTVecParallel": func() { m.MulTVecParallel(make([]float64, 1999)) },
		"MulDenseInto b":  func() { m.MulDenseInto(mat.NewDense(2000, 10), mat.NewDense(499, 10)) },
		"BlockOp.TMulDenseInto": func() {
			m.Block().TMulDenseInto(mat.NewDense(500, 10), mat.NewDense(1999, 10))
		},
		"MulDenseInto dst": func() { m.MulDenseInto(mat.NewDense(1999, 10), mat.NewDense(500, 10)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected dimension panic", name)
				}
			}()
			fn()
		}()
	}
}
