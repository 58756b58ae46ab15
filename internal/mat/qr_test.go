package mat

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/par"
	"repro/internal/race"
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
	g := gramReference(a)
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

// gramReference is the Gram matrix as first written: per panel, one Axpy
// per element on and right of the diagonal.
func gramReference(a *Dense) *Dense {
	n := a.cols
	g := NewDense(n, n)
	panelReduce(a.rows, g.data, func(lo, hi int, acc []float64, _ *[]float64) {
		for k := lo; k < hi; k++ {
			x := a.data[k*n : (k+1)*n]
			for i, xi := range x {
				Axpy(xi, x[i:], acc[i*n+i:(i+1)*n])
			}
		}
	})
	return g
}

// TestCholQRBitwiseMatchesReference holds cholQR, and the Gram matrix it
// starts from, to the one-Axpy-at-a-time loop bit for bit, with the tile
// on (where the CPU has it) and off, at one, two and eight workers. The
// widths cover one tile row, a first substitution panel of every width
// from 1 to 16, and the ledger's 74; the row counts leave tile blocks
// over and span several panels. Each input is salted one way:
//   - zeros, scattered, as whole rows and as a leading column run, and in
//     some rows −0, which sends their block of the substitution to the
//     loop (the loop keeps a −0 the tile would turn into +0);
//   - subnormals, in products and sums;
//   - a NaN with a payload, or an Inf: the Gram takes the loop in that
//     panel, and the pass breaks down, leaving a untouched.
//
// Then QRInPlace on dependent columns, where the first pass breaks down
// to mgs, must give the same bits with the tile on and off.
func TestCholQRBitwiseMatchesReference(t *testing.T) {
	tile := hasAVX512
	t.Cleanup(func() { hasAVX512 = tile })
	modes := []bool{false}
	if tile {
		modes = append(modes, true)
	}
	salts := map[string]func(a *Dense, rng *rand.Rand){
		"zeros": func(a *Dense, rng *rand.Rand) {
			for i := range a.data {
				if rng.Intn(5) == 0 {
					a.data[i] = 0
				}
			}
			for k := 3; k < a.rows; k += 97 {
				clear(a.Row(k))
			}
			for k := 0; k < a.rows/2; k++ {
				a.Row(k)[0] = 0
			}
			for k := 5; k < a.rows; k += 41 {
				a.Row(k)[rng.Intn(a.cols)] = math.Copysign(0, -1)
			}
		},
		"subnormals": func(a *Dense, rng *rand.Rand) {
			for i := range a.data {
				if rng.Intn(7) == 0 {
					a.data[i] = mulSpecials[2+rng.Intn(len(mulSpecials)-2)] * a.data[i]
				}
			}
		},
		"nan": func(a *Dense, rng *rand.Rand) {
			a.data[rng.Intn(len(a.data))] = math.Float64frombits(0x7ff8000000000abc)
		},
		"inf": func(a *Dense, rng *rand.Rand) {
			a.data[rng.Intn(len(a.data))] = math.Inf(-1)
		},
	}
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 3, 4, 5, 8, 9, 16, 17, 31, 33, 74} {
		for _, rows := range []int{n + 1, 509, 1027, 1543} { // never a multiple of 8 and 512 both
			for _, name := range []string{"zeros", "subnormals", "nan", "inf"} {
				a := randDense(rows, n, rng)
				salts[name](a, rng)
				wantG := gramReference(a)
				want := a.Clone()
				wantR, wantOK := cholQRReference(want)
				if !wantOK && rows > 500 && (name == "zeros" || name == "subnormals") {
					t.Fatalf("%dx%d %s: the reference broke down on a full-rank input", rows, n, name)
				}
				for _, on := range modes {
					hasAVX512 = on
					for _, procs := range []int{1, 2, 8} {
						old := par.SetMaxProcs(procs)
						g := gram(a)
						got := a.Clone()
						gotR, ok := cholQR(got)
						par.SetMaxProcs(old)
						if i := firstBitDiff(g.data, wantG.data); i >= 0 {
							t.Fatalf("%dx%d %s tile=%v procs=%d: Gram element %d = %x, want %x", rows, n, name, on, procs, i,
								math.Float64bits(g.data[i]), math.Float64bits(wantG.data[i]))
						}
						if ok != wantOK {
							t.Fatalf("%dx%d %s tile=%v procs=%d: ok = %v, reference %v", rows, n, name, on, procs, ok, wantOK)
						}
						if !ok {
							if i := firstBitDiff(got.data, a.data); i >= 0 {
								t.Fatalf("%dx%d %s tile=%v procs=%d: a breakdown modified the input at %d", rows, n, name, on, procs, i)
							}
							continue
						}
						if i := firstBitDiff(gotR.data, wantR.data); i >= 0 {
							t.Fatalf("%dx%d %s tile=%v procs=%d: R differs from the reference at %d", rows, n, name, on, procs, i)
						}
						if i := firstBitDiff(got.data, want.data); i >= 0 {
							t.Fatalf("%dx%d %s tile=%v procs=%d: Q differs from the reference at row %d col %d", rows, n, name, on, procs, i/n, i%n)
						}
					}
				}
			}
		}
	}

	dep := randDense(1100, 40, rng)
	for i := 0; i < dep.Rows(); i++ {
		row := dep.Row(i)
		row[7] = row[2] - row[30]
		row[33] = 3 * row[1]
	}
	var first, firstR *Dense
	for _, on := range modes {
		hasAVX512 = on
		if _, ok := cholQR(dep.Clone()); ok {
			t.Fatalf("tile=%v: cholQR accepted dependent columns", on)
		}
		q := dep.Clone()
		r, kept := QRInPlace(q, 1e-10)
		if kept != 38 {
			t.Fatalf("tile=%v: kept = %d, want 38", on, kept)
		}
		if first == nil {
			first, firstR = q, r
		} else if firstBitDiff(q.data, first.data) >= 0 || firstBitDiff(r.data, firstR.data) >= 0 {
			t.Fatal("QRInPlace's mgs fallback differs with the tile on and off")
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

// TestQRLedgerShapeAllocsRepeat runs BenchmarkQRInPlaceLedgerShape's QR
// at two workers on two threads, and requires every run after the first
// (which grows the kept pack buffers) to allocate the same number of
// objects: the Gram panels' pack buffers follow from the chunk layout, not
// from which panels happen to run at once. testing.AllocsPerRun sets
// GOMAXPROCS to 1, so the test counts itself (ownAllocs).
func TestQRLedgerShapeAllocsRepeat(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer par.SetMaxProcs(par.SetMaxProcs(2))
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	src := randDense(51200, 74, rand.New(rand.NewSource(156)))
	a := src.Clone()
	counts := make([]int64, 6)
	for run := range counts {
		copy(a.data, src.data)
		before := ownAllocs()
		QRInPlace(a, 1e-12)
		counts[run] = ownAllocs() - before
	}
	for _, c := range counts[2:] {
		if c != counts[1] {
			t.Fatalf("allocations per run after the first: %v, want one value", counts[1:])
		}
	}
}

// ownAllocs returns how many objects the functions of repro/internal have
// allocated so far: the memory profile's records at rate 1 whose first
// frame is such a function (the profile drops the runtime's malloc
// frames). runtime.MemStats.Mallocs would also count the runtime's own
// bookkeeping, which follows scheduling: a goroutine that blocks on a
// channel while its processor's cache of waiters is empty allocates one.
func ownAllocs() int64 {
	runtime.GC() // the profile reads as of the last collection
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	var total int64
	for _, r := range recs[:n] {
		f, _ := runtime.CallersFrames(r.Stack()).Next()
		if strings.HasPrefix(f.Function, "repro/internal/") && f.Function != "repro/internal/mat.ownAllocs" {
			total += r.AllocObjects
		}
	}
	return total
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
