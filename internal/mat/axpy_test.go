package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// axpyTestData fills n values with random magnitudes salted with the
// values whose arithmetic is easiest to get subtly wrong: signed zeros,
// subnormals, infinities and a NaN with a payload.
func axpyTestData(n int, rng *rand.Rand) []float64 {
	special := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2e-308, math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000abc),
	}
	out := make([]float64, n)
	for i := range out {
		if rng.Intn(3) == 0 {
			out[i] = special[rng.Intn(len(special))]
		} else {
			out[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
	}
	return out
}

func firstBitDiff(got, want []float64) int {
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestAxpyAVX2MatchesGeneric pins the dispatching Axpy to the portable
// loop bit for bit: every length across the 16-, 4- and 1-element steps
// of the kernel, slices starting at every offset from a 32-byte boundary
// (the kernel's loads are unaligned), and every alpha whose product is
// special. On a machine without AVX2 it checks the portable loop against
// itself.
func TestAxpyAVX2MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	alphas := []float64{0, 1, -1, 1e-300, math.NaN(), math.Inf(1), math.Inf(-1), 0.3, -2.5e17}
	for n := 0; n <= 130; n++ {
		for off := 0; off < 4; off++ {
			x := axpyTestData(off+n, rng)[off:]
			y0 := axpyTestData(off+n+1, rng)[off : off+n+1] // one guard element past the end
			for _, alpha := range alphas {
				got := append([]float64(nil), y0...)
				want := append([]float64(nil), y0...)
				Axpy(alpha, x, got[:n])
				if alpha != 0 { // Axpy's own skip: y stays untouched, NaNs and all
					axpyGeneric(alpha, x, want[:n])
				}
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("n=%d off=%d alpha=%v: y[%d] = %x, want %x (x=%v y=%v, hasAVX2=%v)",
						n, off, alpha, i, math.Float64bits(got[i]), math.Float64bits(want[i]), x[min(i, n-1)], y0[i], hasAVX2)
				}
			}
		}
	}
}

// TestAxpy4MatchesFourAxpys holds the fused update to its definition —
// four Axpy calls in order — over the same lengths, offsets and special
// values, including zero alphas anywhere among the four.
func TestAxpy4MatchesFourAxpys(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pool := []float64{0, math.Copysign(0, -1), 1, -1, 1e-300, math.NaN(), math.Inf(1), math.Inf(-1), 0.3, -2.5e17}
	for n := 0; n <= 130; n++ {
		for off := 0; off < 4; off++ {
			var xs [4][]float64
			for r := range xs {
				xs[r] = axpyTestData(off+n, rng)[off:]
			}
			y0 := axpyTestData(off+n+1, rng)[off : off+n+1]
			for trial := 0; trial < 6; trial++ {
				var alpha [4]float64
				for r := range alpha {
					alpha[r] = pool[rng.Intn(len(pool))]
				}
				got := append([]float64(nil), y0...)
				want := append([]float64(nil), y0...)
				axpy4(&alpha, xs[0], xs[1], xs[2], xs[3], got[:n])
				for r, a := range alpha {
					Axpy(a, xs[r], want[:n])
				}
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("n=%d off=%d alpha=%v: y[%d] = %x, want %x (hasAVX2=%v)",
						n, off, alpha, i, math.Float64bits(got[i]), math.Float64bits(want[i]), hasAVX2)
				}
			}
		}
	}
}

// BenchmarkAxpy times Axpy at the lengths retrieval.Build calls it with:
// 74 is a whole sketch row (the CSR·dense products), 37 the average row
// of CholeskyQR's triangular updates; 1024 shows the streaming rate. Both
// operands stay in L1, so the rate (x read, y read and written: 24 bytes
// an element) is the kernel's own ceiling, not the memory system's.
func BenchmarkAxpy(b *testing.B) {
	for _, n := range []int{37, 74, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, y := make([]float64, n), make([]float64, n)
			for i := range x {
				x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
			}
			b.SetBytes(int64(24 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Axpy(1e-9, x, y)
			}
		})
	}
}
