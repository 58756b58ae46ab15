//go:build amd64

package mat

// dot32AVX2 is dot32Generic in AVX2, bit for bit; len(y) must be len(x).
//
//go:noescape
func dot32AVX2(x []float64, y []float32) float64
