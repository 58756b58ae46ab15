package mat

import (
	"math/rand"
	"testing"
)

// TestDotInt8BlockedMatchesGeneric pins the dispatching DotInt8Blocked
// to the portable scalar reference across dims straddling every SIMD
// boundary (below one 16-lane step, between the 16- and 32-element
// loops, ragged tails) and across extreme code values. Integer
// accumulation is exact, so the comparison is equality, not tolerance;
// on an AVX2 machine this cross-checks the assembly kernel, elsewhere
// it degenerates to checking the scalar loop against itself.
func TestDotInt8BlockedMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dim := range []int{1, 3, 8, 15, 16, 17, 24, 31, 32, 33, 48, 63, 64, 100, 127, 128, 130} {
		for _, rows := range []int{1, 2, 7, 64} {
			q := make([]int16, dim)
			for i := range q {
				q[i] = int16(rng.Intn(255) - 127)
			}
			codes := make([]int8, rows*dim)
			for i := range codes {
				codes[i] = int8(rng.Intn(255) - 127)
			}
			// Saturate a stripe with the extremes so lane-widening bugs
			// (int16 product overflow would need |c| > 127) surface.
			for i := 0; i < len(codes); i += 3 {
				codes[i] = -127
			}
			got := make([]int32, rows)
			want := make([]int32, rows)
			DotInt8Blocked(q, codes, got)
			dotInt8BlockedGeneric(q, codes, want)
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("dim=%d rows=%d: dots[%d] = %d, want %d (hasAVX2=%v)",
						dim, rows, j, got[j], want[j], hasAVX2)
				}
			}
		}
	}
}

// TestDotInt8PreMatchesDotInt8 keeps DotInt8Blocked's one-row call —
// what the quantized scan makes per gathered row of an IVF candidate
// list — in lockstep with the plain int8 kernel, with the AVX2 kernel on
// and off.
func TestDotInt8PreMatchesDotInt8(t *testing.T) {
	avx2 := hasAVX2
	defer func() { hasAVX2 = avx2 }()
	for _, on := range []bool{false, avx2} {
		hasAVX2 = on
		rng := rand.New(rand.NewSource(11))
		for _, n := range []int{0, 1, 5, 8, 9, 16, 17, 33, 64, 100} {
			x := make([]int8, n)
			q := make([]int16, n)
			y := make([]int8, n)
			for i := range x {
				x[i] = int8(rng.Intn(255) - 127)
				q[i] = int16(x[i])
				y[i] = int8(rng.Intn(255) - 127)
			}
			var got [1]int32
			DotInt8Blocked(q, y, got[:])
			if want := DotInt8(x, y); got[0] != want {
				t.Fatalf("n=%d hasAVX2=%v: DotInt8Blocked = %d, DotInt8 = %d", n, on, got[0], want)
			}
		}
	}
}
