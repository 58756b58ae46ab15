package svd

import (
	"math"
	"testing"

	"repro/internal/mat"
)

// Golden tests: matrices with hand-computable singular values.

func TestGoldenTwoByTwo(t *testing.T) {
	// A = [[1,1],[0,1]]: singular values are the square roots of the
	// eigenvalues of AᵀA = [[1,1],[1,2]], which are (3±√5)/2 — the squares
	// of the golden ratio and its reciprocal.
	a := mat.FromRows([][]float64{{1, 1}, {0, 1}})
	res, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	phi := (1 + math.Sqrt(5)) / 2
	want := []float64{phi, 1 / phi}
	for i, w := range want {
		if math.Abs(res.S[i]-w) > 1e-12 {
			t.Fatalf("S[%d] = %.15f, want %.15f", i, res.S[i], w)
		}
	}
}

func TestGoldenOnesMatrix(t *testing.T) {
	// The all-ones m×n matrix has rank 1 with σ₁ = √(mn).
	m, n := 7, 4
	a := mat.NewDense(m, n)
	for i := range a.RawData() {
		a.RawData()[i] = 1
	}
	res, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.S[0]-math.Sqrt(float64(m*n))) > 1e-10 {
		t.Fatalf("sigma1 = %v, want sqrt(%d)", res.S[0], m*n)
	}
	for _, s := range res.S[1:] {
		if s > 1e-10 {
			t.Fatalf("ones matrix rank > 1: %v", res.S)
		}
	}
}

func TestGoldenHilbertConditioning(t *testing.T) {
	// The 5×5 Hilbert matrix is symmetric positive definite and notoriously
	// ill-conditioned (κ ≈ 4.8e5). Its singular values equal its
	// eigenvalues; check σ₁ and the condition number against known values.
	n := 5
	h := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			h.Set(i, j, 1/float64(i+j+1))
		}
	}
	res, err := Decompose(h)
	if err != nil {
		t.Fatal(err)
	}
	// Reference values (LAPACK): σ₁ ≈ 1.5670506910982311,
	// σ₅ ≈ 3.287928772171574e-06.
	if math.Abs(res.S[0]-1.5670506910982311) > 1e-10 {
		t.Fatalf("Hilbert sigma1 = %.16f", res.S[0])
	}
	if math.Abs(res.S[4]-3.287928772171574e-06) > 1e-12 {
		t.Fatalf("Hilbert sigma5 = %.16e", res.S[4])
	}
	// Eigenvalues from SymEigen must agree (H is SPD).
	d, _, err := SymEigen(h)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d {
		if math.Abs(d[i]-res.S[i]) > 1e-10 {
			t.Fatalf("Hilbert eigen/singular mismatch at %d: %v vs %v", i, d[i], res.S[i])
		}
	}
}

func TestGoldenPermutationMatrix(t *testing.T) {
	// Permutation matrices are orthogonal: all singular values 1, and the
	// reconstruction must be exact.
	a := mat.FromRows([][]float64{
		{0, 1, 0},
		{0, 0, 1},
		{1, 0, 0},
	})
	res, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.S {
		if math.Abs(s-1) > 1e-13 {
			t.Fatalf("permutation sigma %v", s)
		}
	}
	if !mat.EqualApprox(res.Reconstruct(), a, 1e-12) {
		t.Fatal("permutation reconstruction failed")
	}
}

func TestGoldenDiagonalRectangular(t *testing.T) {
	// Rectangular "diagonal": σ = |diagonal values| sorted.
	a := mat.NewDense(5, 3)
	a.Set(0, 0, -2)
	a.Set(1, 1, 5)
	a.Set(2, 2, 0.5)
	res, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 2, 0.5}
	for i, w := range want {
		if math.Abs(res.S[i]-w) > 1e-13 {
			t.Fatalf("S = %v, want %v", res.S, want)
		}
	}
}
