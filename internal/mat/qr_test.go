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

// TestOrthoInPlace pins the one-pass form to the two routes it shares with
// QRInPlace: on a well-conditioned block it is exactly one cholQR pass
// (same span, orthonormal well beyond what a power iteration needs), and
// on a block cholQR refuses — a graded spectrum to κ = 1e8, the shape a
// sketch of a fast-decaying operator has — it is exactly mgs.
func TestOrthoInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	good := randDense(1300, 24, rng)
	graded := randDense(1300, 33, rng)
	QRInPlace(graded, 1e-12)
	mix := randDense(33, 33, rng)
	for i := 0; i < 33; i++ { // graded ← Q·diag(10^(−i/4))·mix
		ScaleVec(math.Pow(10, -float64(i)/4), mix.Row(i))
	}
	graded = Mul(graded, mix)

	for _, tc := range []struct {
		name string
		a    *Dense
		chol bool
		tol  float64
	}{{"well-conditioned", good, true, 1e-12}, {"graded", graded, false, 1e-13}} {
		want := tc.a.Clone()
		if _, ok := cholQR(want); ok != tc.chol {
			t.Fatalf("%s: cholQR ok = %v, want %v", tc.name, ok, tc.chol)
		}
		if !tc.chol {
			if kept := mgs(want, 1e-12, nil); kept != want.cols {
				t.Fatalf("%s: mgs kept %d of %d columns", tc.name, kept, want.cols)
			}
		}
		for _, procs := range []int{1, 2, 8} {
			old := par.SetMaxProcs(procs)
			got := tc.a.Clone()
			kept := OrthoInPlace(got, 1e-12)
			par.SetMaxProcs(old)
			if kept != got.cols {
				t.Fatalf("%s procs=%d: kept = %d", tc.name, procs, kept)
			}
			if i := firstBitDiff(got.data, want.data); i >= 0 {
				t.Fatalf("%s procs=%d: differs from the single pass it stands for at %d", tc.name, procs, i)
			}
			if !got.IsOrthonormalCols(tc.tol) {
				t.Fatalf("%s procs=%d: not orthonormal to %g", tc.name, procs, tc.tol)
			}
		}
		// Same column space: projecting the input onto the basis loses
		// nothing of it.
		proj := Mul(want, MulT(want, tc.a))
		if !EqualApprox(proj, tc.a, 1e-10*tc.a.MaxAbs()) {
			t.Fatalf("%s: basis does not span the input's columns", tc.name)
		}
	}
}

// cholQRReference is cholQR as first written: one Axpy per triangular
// update, no grouping. cholQR must reproduce it bit for bit.
func cholQRReference(a *Dense) (*Dense, bool) {
	n := a.cols
	g := NewDense(n, n)
	panelReduce(a.rows, g.data, func(lo, hi int, acc []float64) {
		for k := lo; k < hi; k++ {
			x := a.data[k*n : (k+1)*n]
			for i, xi := range x {
				Axpy(xi, x[i:], acc[i*n+i:(i+1)*n])
			}
		}
	})
	if !cholUpper(g) {
		return nil, false
	}
	for k := 0; k < a.rows; k++ {
		x := a.data[k*n : (k+1)*n]
		for i := range x {
			ri := g.data[i*n : (i+1)*n]
			xi := x[i] / ri[i]
			x[i] = xi
			Axpy(-xi, ri[i+1:], x[i+1:])
		}
	}
	return g, true
}

func TestCholQRBitwiseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 3, 4, 5, 8, 9, 74} {
		for _, rows := range []int{n + 1, 509, 1027, 1543} { // never a multiple of 4 and 512 both
			if rows < n {
				continue
			}
			a := randDense(rows, n, rng)
			// Exact zeros, scattered and as whole rows and a leading
			// column run, so the zero-alpha skip is taken inside groups
			// of four on both halves.
			for i := range a.data {
				if rng.Intn(5) == 0 {
					a.data[i] = 0
				}
			}
			for k := 3; k < rows; k += 97 {
				clear(a.Row(k))
			}
			for k := 0; k < rows/2; k++ {
				a.Row(k)[0] = 0
			}
			want := a.Clone()
			wantR, wantOK := cholQRReference(want)
			if !wantOK && rows > 500 {
				t.Fatalf("%dx%d: the reference broke down on a full-rank input", rows, n)
			}
			for _, procs := range []int{1, 2, 8} {
				old := par.SetMaxProcs(procs)
				got := a.Clone()
				gotR, ok := cholQR(got)
				par.SetMaxProcs(old)
				if ok != wantOK {
					t.Fatalf("%dx%d procs=%d: ok = %v, reference %v", rows, n, procs, ok, wantOK)
				}
				if !ok {
					continue
				}
				if i := firstBitDiff(gotR.data, wantR.data); i >= 0 {
					t.Fatalf("%dx%d procs=%d: R differs from the reference at %d", rows, n, procs, i)
				}
				if i := firstBitDiff(got.data, want.data); i >= 0 {
					t.Fatalf("%dx%d procs=%d: Q differs from the reference at row %d col %d", rows, n, procs, i/n, i%n)
				}
			}
		}
	}
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
	r1 := NewDense(len(x), len(y))
	for i, xi := range x {
		for j, yj := range y {
			r1.Set(i, j, xi*yj)
		}
	}
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

// BenchmarkQRInPlaceLedgerShape is the orthonormalisation retrieval.Build
// spends its time in: one CholeskyQR2 of a documents × sketch block at the
// repository benchmark's scale (51,200 × 74). The input is restored
// outside the timer, so the figure is two cholQR passes and nothing else.
func BenchmarkQRInPlaceLedgerShape(b *testing.B) {
	src := randDense(51200, 74, rand.New(rand.NewSource(156)))
	a := src.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(a.data, src.data)
		b.StartTimer()
		QRInPlace(a, 1e-12)
	}
}
