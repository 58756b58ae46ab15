package svd

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

func randDense(r, c int, rng *rand.Rand) *mat.Dense {
	m := mat.NewDense(r, c)
	d := m.RawData()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return m
}

// checkSVD verifies the defining properties of a (possibly truncated) SVD.
func checkSVD(t *testing.T, a *mat.Dense, res *Result, full bool, tol float64) {
	t.Helper()
	rows, cols := a.Dims()
	if res.U.Rows() != rows || res.V.Rows() != cols {
		t.Fatalf("SVD factor shapes wrong: U %dx%d, V %dx%d for A %dx%d",
			res.U.Rows(), res.U.Cols(), res.V.Rows(), res.V.Cols(), rows, cols)
	}
	for i := 1; i < len(res.S); i++ {
		if res.S[i] > res.S[i-1]+1e-12 {
			t.Fatalf("singular values not descending: %v", res.S)
		}
	}
	for _, s := range res.S {
		if s < 0 {
			t.Fatalf("negative singular value: %v", res.S)
		}
	}
	// Orthonormality on the nonzero part of the spectrum.
	nz := 0
	for _, s := range res.S {
		if s > 1e-10*(1+res0(res.S)) {
			nz++
		}
	}
	ut := res.U.SliceCols(0, nz)
	vt := res.V.SliceCols(0, nz)
	if !ut.IsOrthonormalCols(1e-8) {
		t.Fatal("U columns not orthonormal")
	}
	if !vt.IsOrthonormalCols(1e-8) {
		t.Fatal("V columns not orthonormal")
	}
	if full {
		back := res.Reconstruct()
		if err := mat.SubMat(back, a).MaxAbs(); err > tol {
			t.Fatalf("reconstruction error %g > %g", err, tol)
		}
	}
}

func res0(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return s[0]
}

func TestDecomposeKnownMatrix(t *testing.T) {
	// A = [[3,0],[0,-2]] has singular values 3, 2.
	a := mat.FromRows([][]float64{{3, 0}, {0, -2}})
	res, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.S[0]-3) > 1e-12 || math.Abs(res.S[1]-2) > 1e-12 {
		t.Fatalf("S = %v, want [3 2]", res.S)
	}
	checkSVD(t, a, res, true, 1e-12)
}

func TestDecomposeRankDeficient(t *testing.T) {
	// Rank-1 matrix (1, 2, 3)·(4, 5)ᵀ: second singular value must vanish.
	a := mat.FromRows([][]float64{{4, 5}, {8, 10}, {12, 15}})
	res, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	want := mat.Norm([]float64{1, 2, 3}) * mat.Norm([]float64{4, 5})
	if math.Abs(res.S[0]-want) > 1e-10 {
		t.Fatalf("sigma1 = %v, want %v", res.S[0], want)
	}
	if res.S[1] > 1e-10 {
		t.Fatalf("sigma2 = %v, want 0", res.S[1])
	}
	checkSVD(t, a, res, true, 1e-10)
}

func TestDecomposeZeroAndEmpty(t *testing.T) {
	z := mat.NewDense(4, 3)
	res, err := Decompose(z)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.S {
		if s != 0 {
			t.Fatalf("zero matrix gave nonzero singular value %v", s)
		}
	}
	if _, err := Decompose(mat.NewDense(0, 0)); err != nil {
		t.Fatalf("empty: %v", err)
	}
}

func TestDecomposeDuplicateColumns(t *testing.T) {
	// Identical columns (perfect synonymy in the paper's sense): rank 1.
	a := mat.FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	res, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.S[1] > 1e-10 {
		t.Fatalf("duplicate columns should give rank 1, S = %v", res.S)
	}
	checkSVD(t, a, res, true, 1e-10)
}

func TestEckartYoungOptimality(t *testing.T) {
	// ‖A−Aₖ‖²_F = Σ_{i>k} σᵢ² (Theorem 1 in the paper), and Aₖ must beat
	// random rank-k competitors.
	rng := rand.New(rand.NewSource(102))
	a := randDense(12, 9, rng)
	res, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	k := 3
	ak := res.Truncate(k).Reconstruct()
	errK := mat.SubMat(a, ak).Frob()
	var tail float64
	for _, s := range res.S[k:] {
		tail += s * s
	}
	if math.Abs(errK*errK-tail) > 1e-8*(1+tail) {
		t.Fatalf("‖A−Aₖ‖²_F = %v, want Σ tail σ² = %v", errK*errK, tail)
	}
	for trial := 0; trial < 20; trial++ {
		// Random rank-k matrix of comparable scale.
		b := mat.Mul(randDense(12, k, rng), randDense(k, 9, rng))
		// Scale the competitor to the least-squares optimal multiple so the
		// comparison is not won by trivial magnitude mismatch.
		num, den := 0.0, 0.0
		ad, bd := a.RawData(), b.RawData()
		for i := range ad {
			num += ad[i] * bd[i]
			den += bd[i] * bd[i]
		}
		if den > 0 {
			b.Scale(num / den)
		}
		if mat.SubMat(a, b).Frob() < errK-1e-9 {
			t.Fatalf("random rank-%d matrix beat the SVD truncation", k)
		}
	}
}

func TestTruncateAndDocSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	a := randDense(8, 6, rng)
	res, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Truncate(2)
	if len(tr.S) != 2 || tr.U.Cols() != 2 || tr.V.Cols() != 2 {
		t.Fatalf("Truncate(2) shapes wrong")
	}
	// Truncate beyond rank clamps.
	tr10 := res.Truncate(100)
	if len(tr10.S) != len(res.S) {
		t.Fatal("Truncate beyond rank should clamp")
	}
	// DocSpace rows must reproduce Vₖ·Dₖ.
	ds := tr.DocSpace()
	for i := 0; i < ds.Rows(); i++ {
		for j := 0; j < 2; j++ {
			want := tr.V.At(i, j) * tr.S[j]
			if math.Abs(ds.At(i, j)-want) > 1e-12 {
				t.Fatalf("DocSpace(%d,%d) = %v, want %v", i, j, ds.At(i, j), want)
			}
		}
	}
}

func TestRandomizedMatchesDenseTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	a := randDense(40, 25, rng)
	full, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	k := 5
	rz, err := Randomized(DenseOp{a}, k, RandomizedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if math.Abs(rz.S[i]-full.S[i]) > 1e-7*(1+full.S[0]) {
			t.Fatalf("Randomized sigma[%d] = %v, dense = %v", i, rz.S[i], full.S[i])
		}
	}
	checkSVD(t, a, rz, false, 0)
}

func TestSymEigenMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for _, n := range []int{1, 2, 5, 12, 30} {
		// Random symmetric matrix.
		a := mat.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		d1, v1, err := SymEigen(a)
		if err != nil {
			t.Fatalf("n=%d SymEigen: %v", n, err)
		}
		d2, _, err := SymJacobi(a)
		if err != nil {
			t.Fatalf("n=%d SymJacobi: %v", n, err)
		}
		for i := 0; i < n; i++ {
			if math.Abs(d1[i]-d2[i]) > 1e-8*(1+math.Abs(d2[0])) {
				t.Fatalf("n=%d eigenvalue %d: tqli %v vs jacobi %v", n, i, d1[i], d2[i])
			}
		}
		// Eigen equation A v = λ v.
		for j := 0; j < n; j++ {
			av := mat.MulVec(a, v1.Col(j))
			lv := v1.Col(j)
			mat.ScaleVec(d1[j], lv)
			if mat.Dist(av, lv) > 1e-8*(1+math.Abs(d1[0])) {
				t.Fatalf("n=%d: eigen equation fails for pair %d", n, j)
			}
		}
		if !v1.IsOrthonormalCols(1e-8) {
			t.Fatalf("n=%d: eigenvectors not orthonormal", n)
		}
	}
}

func TestSymEigenKnownSpectrum(t *testing.T) {
	a := mat.FromRows([][]float64{{5, 0, 0}, {0, -1, 0}, {0, 0, 3}})
	d, _, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 3, -1}
	for i := range want {
		if math.Abs(d[i]-want[i]) > 1e-12 {
			t.Fatalf("d = %v, want %v", d, want)
		}
	}
}

func TestSymEigenNonSquare(t *testing.T) {
	if _, _, err := SymEigen(mat.NewDense(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
	if _, _, err := SymJacobi(mat.NewDense(2, 3)); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestSVDEigenConsistency(t *testing.T) {
	// Singular values of A are sqrt of eigenvalues of AᵀA.
	rng := rand.New(rand.NewSource(108))
	a := randDense(10, 6, rng)
	res, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	ata := mat.MulT(a, a)
	d, _, err := SymEigen(ata)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.S {
		want := math.Sqrt(math.Max(d[i], 0))
		if math.Abs(res.S[i]-want) > 1e-8*(1+res.S[0]) {
			t.Fatalf("sigma[%d] = %v, sqrt(lambda) = %v", i, res.S[i], want)
		}
	}
}

// Property test: for random matrices of random shapes, Decompose satisfies
// the SVD contract.
func TestDecomposePropertyRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for trial := 0; trial < 40; trial++ {
		r := 1 + rng.Intn(20)
		c := 1 + rng.Intn(20)
		a := randDense(r, c, rng)
		res, err := Decompose(a)
		if err != nil {
			t.Fatalf("trial %d (%dx%d): %v", trial, r, c, err)
		}
		checkSVD(t, a, res, true, 1e-8)
	}
}

func TestPythag(t *testing.T) {
	if got := pythag(3, 4); math.Abs(got-5) > 1e-14 {
		t.Fatalf("pythag(3,4) = %v", got)
	}
	if got := pythag(0, 0); got != 0 {
		t.Fatalf("pythag(0,0) = %v", got)
	}
	// No overflow for huge components.
	if got := pythag(1e300, 1e300); math.IsInf(got, 0) {
		t.Fatal("pythag overflow")
	}
}
