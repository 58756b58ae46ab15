//go:build !amd64

package mat

// Non-amd64 builds always take the portable kernels: hasAVX2 and
// hasAVX512 are variables that stay false (variables so the tests that
// switch a kernel off compile everywhere), and the assembly entry points
// are stubs that keep the dispatch sites compiling and are unreachable.

var hasAVX2, hasAVX512 = false, false

func axpyAVX2(alpha float64, x, y *float64, n int) {
	panic("mat: axpyAVX2 called without AVX2 support")
}

func axpy4AVX2(alpha *[4]float64, x0, x1, x2, x3, y *float64, n int) {
	panic("mat: axpy4AVX2 called without AVX2 support")
}

func mulTileAVX512(a *float64, lda, inc int, b *float64, kc int, c *float64, ldc int) {
	panic("mat: mulTileAVX512 called without AVX-512 support")
}

func solvePanelAVX512(x *float64, ldx int, r *float64, ldr, w int, t *float64) {
	panic("mat: solvePanelAVX512 called without AVX-512 support")
}

func dotInt8BlockedAVX2(q *int16, codes *int8, dots *int32, dim, rows, dim16 int) {
	panic("mat: dotInt8BlockedAVX2 called without AVX2 support")
}

func dot32AVX2(x []float64, y []float32) float64 {
	panic("mat: dot32AVX2 called without AVX2 support")
}
