package mat

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func randDense(r, c int, rng *rand.Rand) *Dense {
	m := NewDense(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d want 3,4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("new matrix not zeroed at (%d,%d)", i, j)
			}
		}
	}
}

func TestSetAtAdd(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 1, 3.5)
	if got := m.At(0, 1); got != 3.5 {
		t.Fatalf("At(0,1) = %v, want 3.5", got)
	}
}

func TestIndexPanics(t *testing.T) {
	m := NewDense(2, 2)
	cases := []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(-1, 0, 1) },
		func() { m.Row(5) },
		func() { m.Col(-1) },
		func() { NewDense(-1, 2) },
		func() { NewDenseData(2, 2, []float64{1}) },
	}
	for i, f := range cases {
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

func TestFromRowsRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestIdentityDiag(t *testing.T) {
	id := Identity(3)
	d := FromRows([][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}})
	if !EqualApprox(id, d, 0) {
		t.Fatal("Identity(3) is not the unit diagonal")
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if r, c := mt.Dims(); r != 3 || c != 2 {
		t.Fatalf("transpose dims = %d,%d", r, c)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if got := Mul(a, b); !EqualApprox(got, want, 1e-12) {
		t.Fatalf("Mul = %v want %v", got, want)
	}
}

func TestMulTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randDense(7, 4, rng)
	b := randDense(7, 5, rng)
	got := MulT(a, b)
	want := Mul(a.T(), b)
	if !EqualApprox(got, want, 1e-12) {
		t.Fatal("MulT disagrees with explicit transpose multiply")
	}
}

func TestMulBTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randDense(6, 4, rng)
	b := randDense(5, 4, rng)
	got := MulBT(a, b)
	want := Mul(a, b.T())
	if !EqualApprox(got, want, 1e-12) {
		t.Fatal("MulBT disagrees with explicit transpose multiply")
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randDense(5, 3, rng)
	x := []float64{1.5, -2, 0.25}
	got := MulVec(a, x)
	xm := NewDenseData(3, 1, slices.Clone(x))
	want := Mul(a, xm)
	for i := range got {
		if math.Abs(got[i]-want.At(i, 0)) > 1e-12 {
			t.Fatalf("MulVec[%d] = %v want %v", i, got[i], want.At(i, 0))
		}
	}
}

func TestMulTVecMatchesMulT(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randDense(5, 3, rng)
	x := []float64{1, 2, 3, 4, 5}
	got := MulTVec(a, x)
	want := MulVec(a.T(), x)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("MulTVec[%d] = %v want %v", i, got[i], want[i])
		}
	}
}

func TestMulDimensionPanics(t *testing.T) {
	a := NewDense(2, 3)
	b := NewDense(2, 3)
	for i, f := range []func(){
		func() { Mul(a, b) },
		func() { MulT(NewDense(2, 3), NewDense(3, 2)) },
		func() { MulBT(NewDense(2, 3), NewDense(2, 4)) },
		func() { MulVec(a, []float64{1}) },
		func() { MulTVec(a, []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected dimension panic", i)
				}
			}()
			f()
		}()
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{4, 3}, {2, 1}})
	sum := AddMat(a, b)
	want := FromRows([][]float64{{5, 5}, {5, 5}})
	if !EqualApprox(sum, want, 0) {
		t.Fatal("AddMat wrong")
	}
	diff := SubMat(sum, b)
	if !EqualApprox(diff, a, 0) {
		t.Fatal("SubMat wrong")
	}
	sc := a.Clone().Scale(2)
	if sc.At(1, 1) != 8 {
		t.Fatal("Scale wrong")
	}
}

func TestFrobAndMaxAbs(t *testing.T) {
	m := FromRows([][]float64{{3, 0}, {0, -4}})
	if got := m.Frob(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Frob = %v want 5", got)
	}
	if got := m.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %v want 4", got)
	}
}

func TestRowColSetters(t *testing.T) {
	m := NewDense(2, 3)
	m.SetRow(0, []float64{1, 2, 3})
	m.SetCol(2, []float64{9, 8})
	if m.At(0, 2) != 9 || m.At(1, 2) != 8 || m.At(0, 0) != 1 {
		t.Fatalf("setters wrong: %v", m)
	}
	col := m.Col(2)
	col[0] = 100 // copy; must not alias
	if m.At(0, 2) != 9 {
		t.Fatal("Col should return a copy")
	}
	row := m.Row(0)
	row[0] = 42 // view; must alias
	if m.At(0, 0) != 42 {
		t.Fatal("Row should return a view")
	}
}

func TestSliceColsRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	c := m.SliceCols(1, 3)
	if c.Rows() != 3 || c.Cols() != 2 || c.At(0, 0) != 2 || c.At(2, 1) != 9 {
		t.Fatalf("SliceCols wrong: %v", c)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := FromRows([][]float64{{1}})
	if small.String() == "" {
		t.Fatal("empty String for small matrix")
	}
	large := NewDense(20, 20)
	s := large.String()
	if len(s) > 100 {
		t.Fatalf("large matrix String should summarize, got %d bytes", len(s))
	}
}

func TestEmptyMatrixOps(t *testing.T) {
	e := NewDense(0, 0)
	if e.Frob() != 0 || e.MaxAbs() != 0 {
		t.Fatal("empty matrix norms should be 0")
	}
	et := e.T()
	if r, c := et.Dims(); r != 0 || c != 0 {
		t.Fatal("empty transpose wrong dims")
	}
}
