package mat

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

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

// atProcs returns f's result computed under par.MaxProcs n.
func atProcs(n int, f func() *Dense) *Dense {
	old := par.SetMaxProcs(n)
	defer par.SetMaxProcs(old)
	return f()
}

// firstDenseBitDiff returns the first element index at which got and want
// differ in their bits (−0 against +0 and NaN payloads included), or -1.
func firstDenseBitDiff(got, want *Dense) int {
	if got.rows != want.rows || got.cols != want.cols {
		return 0
	}
	return firstBitDiff(got.data, want.data)
}

// TestMulParallelMatchesSerial holds Mul, which splits rows across par
// workers above parallelThreshold, to its single-worker result bit for bit.
func TestMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	shapes := [][3]int{
		{3, 4, 5},       // below threshold: serial at any MaxProcs
		{80, 120, 90},   // still small
		{200, 150, 220}, // above threshold: parallel path
		{201, 149, 223}, // odd sizes: uneven worker chunks
	}
	for _, sh := range shapes {
		a := randDense(sh[0], sh[1], rng)
		b := randDense(sh[1], sh[2], rng)
		got := atProcs(4, func() *Dense { return Mul(a, b) })
		want := atProcs(1, func() *Dense { return Mul(a, b) })
		if i := firstDenseBitDiff(got, want); i >= 0 {
			t.Fatalf("%v: Mul at MaxProcs 4 differs from MaxProcs 1 at element %d", sh, i)
		}
	}
}

// mulSpecials are the entries of a on which the packed tile and mulRows'
// axpy4 loop differ most: signed zeros (axpy4 skips them, the tile adds
// their products) and subnormals; mulNonFinite are Infs and NaNs with
// payloads, quiet and signalling.
var (
	mulSpecials  = []float64{0, math.Copysign(0, -1), 5e-324, -2.2e-308, 1e-300}
	mulNonFinite = []float64{math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff8000000000abc), math.Float64frombits(0xfff4000000000def)}
)

// saltA overwrites about a quarter of a's entries with mulSpecials and, in
// every fifth row only (so most rows stay finite), a few with mulNonFinite.
func saltA(a *Dense, rng *rand.Rand) {
	for i := 0; i < a.rows; i++ {
		row := a.Row(i)
		for k := range row {
			switch {
			case rng.Intn(4) == 0:
				row[k] = mulSpecials[rng.Intn(len(mulSpecials))]
			case i%5 == 4 && rng.Intn(40) == 0:
				row[k] = mulNonFinite[rng.Intn(len(mulNonFinite))]
			}
		}
	}
}

// TestMulBitwiseMatchesReference holds Mul and MulInto to the plain ikj
// loop of one Axpy per element of a, comparing bits: with the AVX-512 tile
// on (where the CPU has it) and off, at one worker and at four. The
// shapes cover row counts that are and are not multiples of the tile's
// four, widths that are and are not multiples of its sixteen columns,
// inner dimensions shorter than one k-panel and spanning several, and
// products large enough to split across workers into chunks that leave
// rows over. a carries signed zeros, subnormals, Infs and NaN payloads; b
// is finite except in the cases that put an Inf or a NaN in it, which
// must take the reference loop (the tile would turn 0·Inf into NaN where
// axpy4 skips the zero).
func TestMulBitwiseMatchesReference(t *testing.T) {
	tile := hasAVX512
	t.Cleanup(func() { hasAVX512 = tile })
	modes := []bool{false}
	if tile {
		modes = append(modes, true)
	}
	rng := rand.New(rand.NewSource(161))
	shapes := [][3]int{
		{1, 1, 1}, {5, 3, 7}, {4, 1, 16}, {8, 7, 32}, {9, 130, 74}, {17, 1601, 74},
		{6, 203, 5}, {12, 256, 17}, {13, 257, 33}, {7, 513, 15}, {203, 300, 74}, {64, 40, 48},
	}
	for _, sh := range shapes {
		for _, bad := range []float64{0, math.Inf(-1), math.NaN()} {
			a, b := randDense(sh[0], sh[1], rng), randDense(sh[1], sh[2], rng)
			saltA(a, rng)
			for i := range b.data {
				if rng.Intn(8) == 0 {
					b.data[i] = mulSpecials[rng.Intn(len(mulSpecials))]
				}
			}
			if bad != 0 {
				b.data[rng.Intn(len(b.data))] = bad
			}
			want := NewDense(sh[0], sh[2])
			for i := 0; i < sh[0]; i++ {
				for k, av := range a.Row(i) {
					Axpy(av, b.Row(k), want.Row(i))
				}
			}
			for _, on := range modes {
				hasAVX512 = on
				for _, procs := range []int{1, 4} {
					got := atProcs(procs, func() *Dense { return Mul(a, b) })
					into := atProcs(procs, func() *Dense {
						dst := randDense(sh[0], sh[2], rng) // recycled destinations arrive dirty
						MulInto(dst, a, b)
						return dst
					})
					for name, m := range map[string]*Dense{"Mul": got, "MulInto": into} {
						if i := firstDenseBitDiff(m, want); i >= 0 {
							t.Fatalf("%v b-special=%v tile=%v MaxProcs=%d: %s element %d = %x, want %x",
								sh, bad, on, procs, name, i, math.Float64bits(m.data[i]), math.Float64bits(want.data[i]))
						}
					}
				}
			}
		}
	}
}

// TestMulParallelIntoOverwritesForAnyProcs checks that MulInto overwrites
// a dirty destination with the MaxProcs 1 result at every worker count.
func TestMulParallelIntoOverwritesForAnyProcs(t *testing.T) {
	rng := rand.New(rand.NewSource(162))
	a, b := randDense(300, 260, rng), randDense(260, 74, rng)
	want := atProcs(1, func() *Dense { return Mul(a, b) })
	for _, procs := range []int{1, 4} {
		dst := randDense(300, 74, rng) // recycled destinations arrive dirty
		atProcs(procs, func() *Dense { MulInto(dst, a, b); return dst })
		if i := firstDenseBitDiff(dst, want); i >= 0 {
			t.Fatalf("MaxProcs=%d: MulInto differs from Mul at MaxProcs 1 at element %d", procs, i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension panic")
		}
	}()
	MulInto(NewDense(300, 73), a, b)
}

// TestMulConcurrentProducts runs products of different shapes from
// several goroutines at once: each must find its own packing buffer (the
// slot holds one), so every result stays bitwise the serial one.
func TestMulConcurrentProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	type product struct{ a, b, want *Dense }
	var ps []product
	for _, sh := range [][3]int{{40, 300, 74}, {13, 70, 33}, {64, 256, 16}, {9, 513, 5}} {
		a, b := randDense(sh[0], sh[1], rng), randDense(sh[1], sh[2], rng)
		ps = append(ps, product{a, b, Mul(a, b)})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		p := ps[g%len(ps)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := NewDense(p.want.rows, p.want.cols)
			for it := 0; it < 20; it++ {
				MulInto(dst, p.a, p.b)
				if i := firstDenseBitDiff(dst, p.want); i >= 0 {
					t.Errorf("concurrent MulInto %dx%d·%dx%d differs at element %d", p.a.rows, p.a.cols, p.b.rows, p.b.cols, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMulBTParallelMatchesSerial holds MulBT, which splits rows across par
// workers above parallelThreshold, to its single-worker result bit for bit.
func TestMulBTParallelMatchesSerial(t *testing.T) {
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
		got := atProcs(4, func() *Dense { return MulBT(a, b) })
		want := atProcs(1, func() *Dense { return MulBT(a, b) })
		if i := firstDenseBitDiff(got, want); i >= 0 {
			t.Fatalf("%v: MulBT at MaxProcs 4 differs from MaxProcs 1 at element %d", sh, i)
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
	rng := rand.New(rand.NewSource(156))
	// 2 rows but huge inner dimension: crosses the flop threshold with
	// fewer rows than workers.
	a := randDense(2, 2000, rng)
	b := randDense(2000, 600, rng)
	if firstDenseBitDiff(atProcs(4, func() *Dense { return Mul(a, b) }), atProcs(1, func() *Dense { return Mul(a, b) })) >= 0 {
		t.Fatal("few-row parallel multiply wrong")
	}
	c := randDense(2, 2000, rng)
	if firstDenseBitDiff(atProcs(4, func() *Dense { return MulBT(a, c) }), atProcs(1, func() *Dense { return MulBT(a, c) })) >= 0 {
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
	Mul(NewDense(300, 10), NewDense(11, 300))
}

func TestMulBTParallelDimensionPanic(t *testing.T) {
	forceParallel(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension panic")
		}
	}()
	MulBT(NewDense(300, 10), NewDense(300, 11))
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

// BenchmarkMulParallel times the Gram route's product, G·Y with G
// 1,600 × 1,600 and Y 1,600 × 74 (a rank-64 sketch), into a recycled
// destination, and reports its rate as GFLOP/s (2·1,600²·74 flops a
// product, all workers). ceiling_GFLOP/s is the rate of the same row
// kernel on one core on a product whose operands sit in L1 — four rows of
// a against one 256-row panel of b, already packed where the AVX-512 tile
// runs — timed after the loop: what the kernel reaches when memory and
// packing are not in the way.
func BenchmarkMulParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(154))
	const rows, q = 1600, 74
	g, y, gy := randDense(rows, rows, rng), randDense(rows, q, rng), NewDense(rows, q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(gy, g, y)
	}
	b.ReportMetric(2*rows*rows*q*float64(b.N)/1e9/b.Elapsed().Seconds(), "GFLOP/s")
	b.StopTimer()
	const m, k, n, reps = 4, tileK, tileCols, 20000
	x, z, xz := randDense(m, k, rng), randDense(k, n, rng), NewDense(m, n)
	bp := packB(new([]float64), z)
	start := time.Now()
	for i := 0; i < reps; i++ {
		if hasAVX512 {
			mulRowsPacked(xz.data, x, bp, n, 0, m)
		} else {
			mulRows(xz.data, x, z, 0, m)
		}
	}
	b.ReportMetric(2*m*k*n*reps/1e9/time.Since(start).Seconds(), "ceiling_GFLOP/s")
}

func BenchmarkQR(b *testing.B) {
	rng := rand.New(rand.NewSource(155))
	x := randDense(1000, 80, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QR(x)
	}
}
