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

// Below parMinNNZ, MulDenseInto runs its rows as one chunk, which must
// still be MulDense bit for bit, into a dirty destination too.
func TestParallelSmallInputFallsBackToSerial(t *testing.T) {
	withProcs(t, 4)
	coo := NewCOO(200, 4)
	for i := 0; i < 200; i += 3 {
		coo.Add(i, i%4, math.Cos(float64(i)))
		coo.Add(i, (i+1)%4, 1/float64(i+1))
	}
	m := coo.ToCSR()
	b := mat.NewDense(4, 3)
	for i, v := range []float64{1, -1, 2, -2, 3, 0.5, 0.25, 7, -3, 1e-3, 4, 9} {
		b.RawData()[i] = v
	}
	if m.NNZ()*3 >= parMinNNZ || m.rows <= rowGrain {
		t.Fatalf("%d nonzeros over %d rows does not exercise the one-chunk path", m.NNZ(), m.rows)
	}
	got := mat.NewDense(200, 3)
	got.RawData()[0] = math.NaN()
	m.MulDenseInto(got, b)
	if !sameBits(got.RawData(), m.MulDense(b).RawData()) {
		t.Fatal("one-chunk MulDenseInto not bitwise equal to MulDense")
	}
}

func TestParallelDimensionPanics(t *testing.T) {
	withProcs(t, 4)
	m := parCSR(t, 2000, 500, 0.04, 38)
	for name, fn := range map[string]func(){
		"MulDenseInto b": func() { m.MulDenseInto(mat.NewDense(2000, 10), mat.NewDense(499, 10)) },
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
