package mat

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/par"
)

func TestQRReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dims := range [][2]int{{4, 4}, {8, 3}, {20, 7}, {50, 50}, {1, 1}} {
		a := randDense(dims[0], dims[1], rng)
		q, r := QR(a)
		if !q.IsOrthonormalCols(1e-10) {
			t.Errorf("%dx%d: Q columns not orthonormal", dims[0], dims[1])
		}
		back := Mul(q, r)
		if !EqualApprox(back, a, 1e-10) {
			t.Errorf("%dx%d: QR reconstruction error %g", dims[0], dims[1], SubMat(back, a).MaxAbs())
		}
		// R upper triangular.
		for i := 0; i < r.Rows(); i++ {
			for j := 0; j < i; j++ {
				if r.At(i, j) != 0 {
					t.Errorf("%dx%d: R not upper triangular at (%d,%d)", dims[0], dims[1], i, j)
				}
			}
		}
	}
}

func TestQRZeroColumn(t *testing.T) {
	a := FromRows([][]float64{{0, 1}, {0, 2}, {0, 3}})
	q, r := QR(a)
	back := Mul(q, r)
	if !EqualApprox(back, a, 1e-12) {
		t.Fatalf("QR of rank-deficient matrix fails to reconstruct: %v", back)
	}
}

func TestQRWideMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wide matrix")
		}
	}()
	QR(NewDense(2, 3))
}

func TestOrthonormalizeCols(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randDense(10, 4, rng)
	kept := mgs(a, 1e-12, nil)
	if kept != 4 {
		t.Fatalf("kept = %d, want 4", kept)
	}
	if !a.IsOrthonormalCols(1e-10) {
		t.Fatal("columns not orthonormal after mgs")
	}
}

func TestOrthonormalizeColsDependent(t *testing.T) {
	// Third column is the sum of the first two: must be dropped.
	a := FromRows([][]float64{
		{1, 0, 1},
		{0, 1, 1},
		{0, 0, 0},
	})
	kept := mgs(a, 1e-10, nil)
	if kept != 2 {
		t.Fatalf("kept = %d, want 2", kept)
	}
	for i := 0; i < 3; i++ {
		if a.At(i, 2) != 0 {
			t.Fatal("dependent column should be zeroed")
		}
	}
}

// checkThinQR asserts a = q·r with r upper triangular.
func checkThinQR(t *testing.T, a, q, r *Dense, tol float64) {
	t.Helper()
	n := r.Rows()
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if r.At(i, j) != 0 {
				t.Fatalf("R(%d,%d) = %v below the diagonal", i, j, r.At(i, j))
			}
		}
	}
	if !EqualApprox(Mul(q, r), a, tol) {
		t.Fatal("Q·R does not reproduce the input")
	}
}

func TestQRInPlaceTallIndependentOfMaxProcs(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := randDense(1300, 24, rng) // three row panels
	// Spread the column scales so R is far from the identity.
	for i := 0; i < a.Rows(); i++ {
		for j, row := 0, a.Row(i); j < len(row); j++ {
			row[j] *= math.Pow(0.5, float64(j))
		}
	}
	var first, firstR *Dense
	for _, procs := range []int{1, 2, 8} {
		old := par.SetMaxProcs(procs)
		q := a.Clone()
		r, kept := QRInPlace(q, 1e-12)
		par.SetMaxProcs(old)
		if kept != 24 {
			t.Fatalf("MaxProcs=%d: kept = %d, want 24", procs, kept)
		}
		if !q.IsOrthonormalCols(1e-13) {
			t.Fatalf("MaxProcs=%d: Q not orthonormal to 1e-13", procs)
		}
		checkThinQR(t, a, q, r, 1e-12)
		if first == nil {
			first, firstR = q, r
		} else if !EqualApprox(q, first, 0) || !EqualApprox(r, firstR, 0) {
			t.Fatalf("MaxProcs=%d: QRInPlace not bitwise equal to the MaxProcs=1 result", procs)
		}
	}
}

func TestQRInPlaceDependentColumnsFallBack(t *testing.T) {
	// Columns 2 and 5 are exact combinations of earlier ones, so the Gram
	// matrix is singular: the Cholesky pass must refuse, leaving its input
	// alone, and QRInPlace must finish with mgs' semantics.
	rng := rand.New(rand.NewSource(16))
	a := randDense(700, 6, rng)
	for i := 0; i < a.Rows(); i++ {
		row := a.Row(i)
		row[2] = row[0]
		row[5] = 2*row[1] - row[3]
	}
	probe := a.Clone()
	if _, ok := cholQR(probe); ok {
		t.Fatal("cholQR accepted an exactly dependent column set")
	}
	if !EqualApprox(probe, a, 0) {
		t.Fatal("cholQR modified its input before reporting breakdown")
	}
	q := a.Clone()
	r, kept := QRInPlace(q, 1e-10)
	if kept != 4 {
		t.Fatalf("kept = %d, want 4", kept)
	}
	for i := 0; i < q.Rows(); i++ {
		if q.At(i, 2) != 0 || q.At(i, 5) != 0 {
			t.Fatal("dependent columns should be zeroed")
		}
	}
	if r.At(2, 2) != 0 || r.At(5, 5) != 0 {
		t.Fatalf("R diagonal of dependent columns = %v, %v, want 0", r.At(2, 2), r.At(5, 5))
	}
	survivors := NewDense(q.Rows(), 4)
	for c, j := range []int{0, 1, 3, 4} {
		survivors.SetCol(c, q.Col(j))
	}
	if !survivors.IsOrthonormalCols(1e-13) {
		t.Fatal("surviving columns not orthonormal")
	}
	checkThinQR(t, a, q, r, 1e-12)
}

func TestNorm2MatchesKnownSingularValue(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// Diagonal matrix: spectral norm is the max |diagonal|.
	d := FromRows([][]float64{{3, 0, 0}, {0, -7, 0}, {0, 0, 2}})
	got := Norm2(d, 100, rng)
	if math.Abs(got-7) > 1e-8 {
		t.Fatalf("Norm2(diag) = %v, want 7", got)
	}
	// Rank-1: sigma = ‖x‖‖y‖.
	x := []float64{1, 2, 2}
	y := []float64{3, 4}
	r1 := Outer(x, y)
	want := Norm(x) * Norm(y)
	got = Norm2(r1, 100, rng)
	if math.Abs(got-want) > 1e-8*want {
		t.Fatalf("Norm2(rank1) = %v, want %v", got, want)
	}
}

func TestNorm2Empty(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	if got := Norm2(NewDense(0, 0), 10, rng); got != 0 {
		t.Fatalf("Norm2(empty) = %v", got)
	}
	if got := Norm2(NewDense(3, 3), 10, rng); got != 0 {
		t.Fatalf("Norm2(zero matrix) = %v", got)
	}
}
