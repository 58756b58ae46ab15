//go:build amd64

package mat

//go:noescape
func axpyAVX2(alpha float64, x, y *float64, n int)

//go:noescape
func axpy4AVX2(alpha *[4]float64, x0, x1, x2, x3, y *float64, n int)
