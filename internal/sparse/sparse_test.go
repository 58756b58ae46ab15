package sparse

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/svd"
)

func randSparse(r, c int, density float64, rng *rand.Rand) (*CSR, *mat.Dense) {
	coo := NewCOO(r, c)
	d := mat.NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				v := rng.NormFloat64()
				coo.Add(i, j, v)
				d.Set(i, j, v)
			}
		}
	}
	return coo.ToCSR(), d
}

func TestCOOToCSRBasic(t *testing.T) {
	coo := NewCOO(3, 3)
	coo.Add(0, 0, 1)
	coo.Add(2, 1, 5)
	coo.Add(1, 2, -2)
	m := coo.ToCSR()
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	if m.At(0, 0) != 1 || m.At(2, 1) != 5 || m.At(1, 2) != -2 || m.At(0, 1) != 0 {
		t.Fatal("At wrong values")
	}
}

func TestCOODuplicatesSummedAndCancelled(t *testing.T) {
	coo := NewCOO(2, 2)
	coo.Add(0, 0, 1)
	coo.Add(0, 0, 2.5)
	coo.Add(1, 1, 3)
	coo.Add(1, 1, -3) // cancels to zero: must be dropped
	coo.Add(0, 1, 0)  // explicit zero: ignored at Add time
	m := coo.ToCSR()
	if m.At(0, 0) != 3.5 {
		t.Fatalf("duplicate sum = %v, want 3.5", m.At(0, 0))
	}
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1 (cancelled entry kept?)", m.NNZ())
	}
}

func TestCOODuplicatesSummedInInsertionOrder(t *testing.T) {
	// Rounding makes the order observable: (1e16 + 1) − 1e16 is 0 but
	// (1e16 − 1e16) + 1 is 1. Enough entries elsewhere that a sort with no
	// stability guarantee would be free to reorder the three.
	coo := NewCOO(4, 50)
	for j := 49; j >= 0; j-- {
		coo.Add(3, j, 1)
		coo.Add(0, j, 2)
	}
	coo.Add(1, 7, 1e16)
	coo.Add(2, 7, 1e16)
	coo.Add(1, 7, 1)
	coo.Add(2, 7, -1e16)
	coo.Add(1, 7, -1e16)
	coo.Add(2, 7, 1)
	m := coo.ToCSR()
	if got := m.At(1, 7); got != 0 {
		t.Fatalf("(1e16 + 1) − 1e16 in insertion order = %v, want 0", got)
	}
	if got := m.At(2, 7); got != 1 {
		t.Fatalf("(1e16 − 1e16) + 1 in insertion order = %v, want 1", got)
	}
	if m.NNZ() != 101 {
		t.Fatalf("NNZ = %d, want 101", m.NNZ())
	}
}

func TestCOOOutOfRangePanics(t *testing.T) {
	coo := NewCOO(2, 2)
	for i, f := range []func(){
		func() { coo.Add(2, 0, 1) },
		func() { coo.Add(0, -1, 1) },
		func() { NewCOO(-1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s, d := randSparse(15, 9, 0.3, rng)
	x := make([]float64, 9)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := s.MulVec(x)
	want := mat.MulVec(d, x)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMulTVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	s, d := randSparse(15, 9, 0.3, rng)
	x := make([]float64, 15)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := s.MulTVec(x)
	want := mat.MulTVec(d, x)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("MulTVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMulDenseAndTMulDense(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s, d := randSparse(10, 7, 0.4, rng)
	b := mat.NewDense(7, 3)
	for i := 0; i < 7; i++ {
		for j := 0; j < 3; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	if got, want := s.MulDense(b), mat.Mul(d, b); !mat.EqualApprox(got, want, 1e-12) {
		t.Fatal("MulDense disagrees with dense multiply")
	}
	c := mat.NewDense(10, 4)
	for i := 0; i < 10; i++ {
		for j := 0; j < 4; j++ {
			c.Set(i, j, rng.NormFloat64())
		}
	}
	if got, want := s.TMulDense(c), mat.MulT(d, c); !mat.EqualApprox(got, want, 1e-12) {
		t.Fatal("TMulDense disagrees with dense multiply")
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	s, d := randSparse(12, 8, 0.25, rng)
	st := s.T()
	if !mat.EqualApprox(st.ToDense(), d.T(), 1e-15) {
		t.Fatal("transpose wrong")
	}
	if !mat.EqualApprox(st.T().ToDense(), d, 1e-15) {
		t.Fatal("double transpose not identity")
	}
	if st.NNZ() != s.NNZ() {
		t.Fatal("transpose changed NNZ")
	}
}

func TestToDenseFromDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	s, d := randSparse(9, 11, 0.3, rng)
	if !mat.EqualApprox(s.ToDense(), d, 0) {
		t.Fatal("COO/ToDense round trip failed")
	}
}

func TestFrobColNormsCol(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	s, d := randSparse(10, 6, 0.5, rng)
	for j := 0; j < 6; j++ {
		colGot := s.Col(j)
		for i := range colGot {
			if colGot[i] != d.At(i, j) {
				t.Fatalf("Col(%d)[%d] mismatch", j, i)
			}
		}
	}
}

func TestRowIterAndRowNNZ(t *testing.T) {
	coo := NewCOO(2, 4)
	coo.Add(1, 0, 1)
	coo.Add(1, 3, 2)
	m := coo.ToCSR()
	var cols []int
	var vals []float64
	m.RowIter(1, func(j int, v float64) {
		cols = append(cols, j)
		vals = append(vals, v)
	})
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 3 || vals[1] != 2 {
		t.Fatalf("RowIter cols=%v vals=%v", cols, vals)
	}
}

func TestEmptyMatrix(t *testing.T) {
	m := NewCOO(0, 0).ToCSR()
	if m.NNZ() != 0 {
		t.Fatal("empty matrix not empty")
	}
	m2 := NewCOO(3, 4).ToCSR() // no entries
	out := m2.MulVec(make([]float64, 4))
	for _, v := range out {
		if v != 0 {
			t.Fatal("all-zero matrix MulVec nonzero")
		}
	}
}

func TestCSRSatisfiesSVDOp(t *testing.T) {
	// The randomized engine must run directly on CSR, through Block, and
	// agree with the dense decomposition of the same matrix. (The Lanczos
	// engine's run on CSR is internal/experiments' Lanczos ablation.)
	rng := rand.New(rand.NewSource(27))
	s, d := randSparse(30, 20, 0.15, rng)
	full, err := svd.Decompose(d)
	if err != nil {
		t.Fatal(err)
	}
	var blk svd.BlockOp = s.Block()
	res, err := svd.Randomized(blk, 4, svd.RandomizedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4 && i < len(res.S); i++ {
		if math.Abs(res.S[i]-full.S[i]) > 1e-7*(1+full.S[0]) {
			t.Fatalf("sparse randomized sigma[%d] = %v, dense = %v", i, res.S[i], full.S[i])
		}
	}
}

// Property: (AᵀA)x computed via sparse ops equals dense computation for
// random sparse matrices of random shape and density.
func TestSparseDenseEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 50; trial++ {
		r := 1 + rng.Intn(20)
		c := 1 + rng.Intn(20)
		s, d := randSparse(r, c, rng.Float64(), rng)
		x := make([]float64, c)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := s.MulTVec(s.MulVec(x))
		want := mat.MulTVec(d, mat.MulVec(d, x))
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-10 {
				t.Fatalf("trial %d: AᵀAx mismatch at %d: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestRowBuilderMatchesCOO(t *testing.T) {
	// Column by column, with a repeated position, a zero value, a pair
	// that cancels, a row left short of its reserved count and an empty row.
	type entry struct {
		i, j int
		v    float64
	}
	entries := []entry{{2, 0, 1.5}, {0, 0, 2}, {2, 0, 0.25}, {0, 1, 0}, {3, 1, 4}, {3, 1, -4}, {0, 2, -1}, {2, 2, 7}}
	rb := NewRowBuilder([]int{3, 0, 3, 2}, 3)
	coo := NewCOO(4, 3)
	for _, e := range entries {
		rb.Add(e.i, e.j, e.v)
		coo.Add(e.i, e.j, e.v)
	}
	got, want := rb.CSR(), coo.ToCSR()
	if got.NNZ() != want.NNZ() || !mat.EqualApprox(got.ToDense(), want.ToDense(), 0) {
		t.Fatalf("RowBuilder gives\n%v, COO gives\n%v", got.ToDense(), want.ToDense())
	}
	for i := 0; i < 4; i++ {
		if g, w := got.rowPtr[i+1]-got.rowPtr[i], want.rowPtr[i+1]-want.rowPtr[i]; g != w {
			t.Fatalf("row %d holds %d entries, want %d", i, g, w)
		}
	}
	for name, misuse := range map[string]func(b *RowBuilder){
		"out of range":        func(b *RowBuilder) { b.Add(0, 3, 1) },
		"row over its count":  func(b *RowBuilder) { b.Add(1, 0, 1); b.Add(1, 1, 1) },
		"columns going back":  func(b *RowBuilder) { b.Add(0, 2, 1); b.Add(0, 1, 1) },
		"row reserved empty":  func(b *RowBuilder) { b.Add(2, 0, 1) },
		"negative row number": func(b *RowBuilder) { b.Add(-1, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a panic", name)
				}
			}()
			misuse(NewRowBuilder([]int{2, 1, 0}, 3))
		}()
	}
}
