package mat

import (
	"math"
	"testing"
)

// Targeted tests for branches the main suites do not reach.

func TestRawDataAliases(t *testing.T) {
	m := NewDense(2, 2)
	m.RawData()[3] = 7
	if m.At(1, 1) != 7 {
		t.Fatal("RawData does not alias the matrix")
	}
}

func TestSetRowColLengthPanics(t *testing.T) {
	m := NewDense(2, 3)
	for i, f := range []func(){
		func() { m.SetRow(0, []float64{1}) },
		func() { m.SetCol(0, []float64{1}) },
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

func TestAddSubDimensionPanics(t *testing.T) {
	a, b := NewDense(2, 2), NewDense(2, 3)
	for i, f := range []func(){
		func() { AddMat(a, b) },
		func() { SubMat(a, b) },
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

func TestEqualApproxShapeMismatch(t *testing.T) {
	if EqualApprox(NewDense(2, 2), NewDense(2, 3), 1) {
		t.Fatal("different shapes should not be equal")
	}
	a := FromRows([][]float64{{1}})
	b := FromRows([][]float64{{1.5}})
	if EqualApprox(a, b, 0.1) {
		t.Fatal("values beyond tolerance should not be equal")
	}
	if !EqualApprox(a, b, 1) {
		t.Fatal("values within tolerance should be equal")
	}
}

func TestSliceOutOfRangePanics(t *testing.T) {
	m := NewDense(3, 3)
	for i, f := range []func(){
		func() { m.SliceCols(-1, 2) },
		func() { m.SliceCols(2, 1) },
		func() { m.SliceCols(0, 4) },
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

func TestAxpyZeroAlphaNoop(t *testing.T) {
	y := []float64{1, 2}
	Axpy(0, []float64{100, 100}, y)
	if y[0] != 1 || y[1] != 2 {
		t.Fatal("Axpy with alpha=0 modified y")
	}
}

func TestCosineZeroVectors(t *testing.T) {
	if Cosine([]float64{0, 0}, []float64{1, 0}) != 0 {
		t.Fatal("Cosine with zero vector should be 0")
	}
	// Clamp below -1.
	a := []float64{1, 0}
	b := []float64{-1, -1e-18}
	c := Cosine(a, b)
	if c < -1 || math.IsNaN(c) {
		t.Fatalf("Cosine clamp failed: %v", c)
	}
}

func TestIsOrthonormalColsNegative(t *testing.T) {
	m := FromRows([][]float64{{1, 1}, {0, 1}})
	if m.IsOrthonormalCols(1e-9) {
		t.Fatal("non-orthonormal columns reported orthonormal")
	}
}
