package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// dot32Data is n float64 query values and n float32 row values across
// forty orders of magnitude, with signed zeros and float32 subnormals.
func dot32Data(n int, rng *rand.Rand) ([]float64, []float32) {
	x, y := make([]float64, n), make([]float32, n)
	for i := range x {
		x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		switch rng.Intn(8) {
		case 0:
			y[i] = float32(math.Copysign(0, -1))
		case 1:
			y[i] = math.SmallestNonzeroFloat32 * float32(rng.Intn(100))
		default:
			y[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10)))
		}
	}
	return x, y
}

// TestDotNorm32AVX2MatchesGeneric pins DotNorm32's AVX2 form to its
// portable form (what runs with hasAVX2 false) bit for bit at every length
// from 1 to 130 — every 16-, 4- and 1-element tail of the kernel — from
// every offset of a 32-byte boundary, and holds both within 1e-15 relative
// of a naive float64 loop over the widened row. On a machine without AVX2
// it checks the portable form against itself and the naive loop.
func TestDotNorm32AVX2MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for n := 1; n <= 130; n++ {
		for off := 0; off < 4; off++ {
			xs, ys := dot32Data(off+n, rng)
			x, y := xs[off:], ys[off:]
			got, want := dot32Generic(x, y), dot32Generic(x, y)
			if hasAVX2 {
				got = dot32AVX2(x, y)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d off=%d: dot %x, portable form %x (hasAVX2=%v)",
					n, off, math.Float64bits(got), math.Float64bits(want), hasAVX2)
			}
			if nx, ny := Norm(x), Norm(y); nx > 0 && ny > 0 {
				if c := DotNorm32(x, y, nx, ny); c != clampCos(want/(nx*ny)) {
					t.Fatalf("n=%d off=%d: DotNorm32 %v is not the portable dot over the norms", n, off, c)
				}
			}
			var naive, mass float64
			for i := range x {
				naive += x[i] * float64(y[i])
				mass += math.Abs(x[i] * float64(y[i]))
			}
			// Relative to the products' total magnitude: a cancelling sum
			// has no relative accuracy of its own to hold.
			if d := math.Abs(got - naive); d > 1e-15*mass {
				t.Fatalf("n=%d off=%d: dot %v, naive %v (|Δ| %v of mass %v)", n, off, got, naive, d, mass)
			}
		}
	}
}

// Norm of a float32 vector is Norm of the widened vector, bit for bit, and
// DotNorm32 keeps DotNorm's conventions: zero norms score 0, round-off
// clamps to ±1.
func TestNorm32AndDotNorm32Conventions(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	_, y := dot32Data(67, rng)
	wide := make([]float64, len(y))
	Convert(wide, y)
	if got, want := Norm(y), Norm(wide); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Norm of a float32 row %v, of the widened row %v", got, want)
	}
	x := []float64{1, 0}
	if DotNorm32(x, []float32{0, 0}, 1, 0) != 0 || DotNorm32(x, []float32{1, 0}, 0, 1) != 0 {
		t.Fatal("a zero norm must score 0")
	}
	if DotNorm32(x, []float32{1, 0}, 0.5, 0.5) != 1 || DotNorm32(x, []float32{-1, 0}, 0.5, 0.5) != -1 {
		t.Fatal("round-off must clamp to ±1")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	DotNorm32(x, []float32{1}, 1, 1)
}

// Widen is exact, Narrow rounds to nearest, and Narrow of an unmodified
// Widen copy is the matrix it was widened from.
func TestWidenNarrow(t *testing.T) {
	m := NewDense32Data(2, 3, []float32{1, -2.5, 1e-40, 3.4e38, 0, 7})
	w := m.Widen()
	for i, v := range m.RawData() {
		if w.RawData()[i] != float64(v) {
			t.Fatalf("value %d widened to %v, want %v", i, w.RawData()[i], v)
		}
	}
	if Narrow(w) != m {
		t.Fatal("Narrow of a Widen copy is not its source")
	}
	a := FromRows([][]float64{{0.1, 1 + 1e-12}, {-3, math.MaxFloat64}})
	n := Narrow(a)
	for i, v := range a.RawData() {
		if n.RawData()[i] != float32(v) {
			t.Fatalf("value %d narrowed to %v, want %v", i, n.RawData()[i], float32(v))
		}
	}
	if r, c := n.Dims(); r != 2 || c != 2 || len(n.Row(1)) != 2 {
		t.Fatalf("narrowed shape %dx%d", r, c)
	}
}

// BenchmarkDotNorm32 times the document scorer at the ledger's rank
// (k = 64) over a streamed matrix far larger than L2, as the exact scan
// reads it: the rate is bytes of float32 rows per second.
func BenchmarkDotNorm32(b *testing.B) {
	const k, rows = 64, 1 << 15
	rng := rand.New(rand.NewSource(1))
	x, _ := dot32Data(k, rng)
	docs := NewDense32(rows, k)
	for i := range docs.RawData() {
		docs.RawData()[i] = float32(rng.NormFloat64())
	}
	b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
		b.SetBytes(int64(rows * k * 4))
		var s float64
		for i := 0; i < b.N; i++ {
			for r := 0; r < rows; r++ {
				s += DotNorm32(x, docs.Row(r), 1, 1)
			}
		}
		sinkFloat = s
	})
}
