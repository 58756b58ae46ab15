package mat

import (
	"math/rand"
	"testing"

	"repro/internal/par"
)

// forceParallel pins the par worker limit above 1 so the parallel kernels
// take their goroutine path even on single-CPU machines, restoring the old
// value on cleanup.
func forceParallel(t *testing.T) {
	t.Helper()
	old := par.SetMaxProcs(4)
	t.Cleanup(func() { par.SetMaxProcs(old) })
}

func TestMulParallelMatchesSerial(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(151))
	shapes := [][3]int{
		{3, 4, 5},       // below threshold: serial fallback
		{80, 120, 90},   // still small
		{200, 150, 220}, // above threshold: parallel path
		{201, 149, 223}, // odd sizes: uneven worker chunks
	}
	for _, sh := range shapes {
		a := randDense(sh[0], sh[1], rng)
		b := randDense(sh[1], sh[2], rng)
		got := MulParallel(a, b)
		want := Mul(a, b)
		if !EqualApprox(got, want, 0) {
			t.Fatalf("%v: MulParallel differs from Mul", sh)
		}
	}
}

// TestMulBitwiseMatchesReference holds Mul (blocked over panels of b, four
// rows of b an update) to the plain ikj loop of one Axpy per element of a,
// bit for bit: inner dimensions that are and are not multiples of 4, wide
// enough to cut b into several panels, and zeros in a (axpy4's skip).
func TestMulBitwiseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	for _, sh := range [][3]int{{1, 1, 1}, {5, 3, 7}, {9, 130, 74}, {17, 1601, 74}, {6, 203, 5}} {
		a, b := randDense(sh[0], sh[1], rng), randDense(sh[1], sh[2], rng)
		for i := range a.data {
			if i%5 == 2 {
				a.data[i] = 0
			}
		}
		want := NewDense(sh[0], sh[2])
		for i := 0; i < sh[0]; i++ {
			for k, av := range a.Row(i) {
				Axpy(av, b.Row(k), want.Row(i))
			}
		}
		if !EqualApprox(Mul(a, b), want, 0) {
			t.Fatalf("%v: Mul not bitwise the one-Axpy-per-element loop", sh)
		}
	}
}

func TestMulParallelIntoOverwritesForAnyProcs(t *testing.T) {
	rng := rand.New(rand.NewSource(162))
	a, b := randDense(300, 260, rng), randDense(260, 74, rng)
	want := Mul(a, b)
	for _, procs := range []int{1, 2, 8} {
		old := par.SetMaxProcs(procs)
		dst := randDense(300, 74, rng) // recycled destinations arrive dirty
		MulParallelInto(dst, a, b)
		par.SetMaxProcs(old)
		if !EqualApprox(dst, want, 0) {
			t.Fatalf("MaxProcs=%d: MulParallelInto not bitwise equal to Mul", procs)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension panic")
		}
	}()
	MulParallelInto(NewDense(300, 73), a, b)
}

func TestMulBTParallelMatchesSerial(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(152))
	shapes := [][3]int{
		{3, 4, 5},
		{150, 60, 150},
		{300, 40, 300},
		{301, 41, 299},
	}
	for _, sh := range shapes {
		a := randDense(sh[0], sh[1], rng)
		b := randDense(sh[2], sh[1], rng)
		got := MulBTParallel(a, b)
		want := MulBT(a, b)
		if !EqualApprox(got, want, 0) {
			t.Fatalf("%v: MulBTParallel differs from MulBT", sh)
		}
	}
}

func TestMulTParallelMatchesSerial(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(157))
	shapes := [][3]int{
		{3, 4, 5},       // below threshold: serial fallback
		{2000, 40, 30},  // tall-times-block, the randomized-SVD shape
		{2001, 41, 29},  // odd sizes: uneven chunks
		{500, 100, 100}, // squarer
	}
	for _, sh := range shapes {
		a := randDense(sh[0], sh[1], rng)
		b := randDense(sh[0], sh[2], rng)
		got := MulTParallel(a, b)
		want := MulT(a, b)
		if !EqualApprox(got, want, 1e-10) {
			t.Fatalf("%v: MulTParallel differs from MulT beyond tolerance", sh)
		}
	}
}

func TestMulTParallelIndependentOfMaxProcs(t *testing.T) {
	rng := rand.New(rand.NewSource(158))
	a := randDense(3000, 40, rng) // six row panels
	b := randDense(3000, 30, rng)
	var first *Dense
	for _, procs := range []int{1, 2, 8, 8} {
		old := par.SetMaxProcs(procs)
		got := MulTParallel(a, b)
		par.SetMaxProcs(old)
		if first == nil {
			first = got
		} else if !EqualApprox(got, first, 0) {
			t.Fatalf("MaxProcs=%d: MulTParallel not bitwise equal to the MaxProcs=1 result", procs)
		}
	}
}

func TestMulTParallelDimensionPanic(t *testing.T) {
	forceParallel(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension panic")
		}
	}()
	MulTParallel(NewDense(300, 10), NewDense(301, 10))
}

func TestParallelFewRowsClampsWorkers(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(156))
	// 2 rows but huge inner dimension: crosses the flop threshold with
	// fewer rows than workers.
	a := randDense(2, 2000, rng)
	b := randDense(2000, 600, rng)
	if !EqualApprox(MulParallel(a, b), Mul(a, b), 0) {
		t.Fatal("few-row parallel multiply wrong")
	}
	c := randDense(2, 2000, rng)
	if !EqualApprox(MulBTParallel(a, c), MulBT(a, c), 0) {
		t.Fatal("few-row parallel BT multiply wrong")
	}
}

func TestMulParallelDimensionPanic(t *testing.T) {
	forceParallel(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension panic")
		}
	}()
	MulParallel(NewDense(300, 10), NewDense(11, 300))
}

func TestMulBTParallelDimensionPanic(t *testing.T) {
	forceParallel(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension panic")
		}
	}()
	MulBTParallel(NewDense(300, 10), NewDense(300, 11))
}

func BenchmarkMulSerial(b *testing.B) {
	rng := rand.New(rand.NewSource(153))
	x := randDense(300, 300, rng)
	y := randDense(300, 300, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkMulParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(154))
	x := randDense(300, 300, rng)
	y := randDense(300, 300, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulParallel(x, y)
	}
}

func BenchmarkQR(b *testing.B) {
	rng := rand.New(rand.NewSource(155))
	x := randDense(1000, 80, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QR(x)
	}
}
