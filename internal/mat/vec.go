package mat

import (
	"fmt"
	"math"
)

// Dot returns the inner product of x and y. It panics on length mismatch.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, xv := range x {
		s += xv * y[i]
	}
	return s
}

// Norm returns the Euclidean norm of x in float64 arithmetic, whatever
// the width of x (bit for bit the norm of its widened copy).
func Norm[F float32 | float64](x []F) float64 {
	// Two-pass scaling avoids overflow for the perturbation experiments,
	// which probe vectors across many orders of magnitude.
	var mx float64
	for _, v := range x {
		if a := math.Abs(float64(v)); a > mx {
			mx = a
		}
	}
	if mx == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		r := float64(v) / mx
		s += r * r
	}
	return mx * math.Sqrt(s)
}

// Axpy computes y += alpha*x in place. It panics on length mismatch.
// It is the inner loop of the block kernels (CSR·dense products, the Gram
// matrix and triangular solve of QRInPlace), so on amd64 with AVX2 it
// runs four elements an instruction (axpy_amd64.s). Each element is one
// multiply and one add, separately rounded, on either path: the result is
// bit for bit axpyGeneric's on every CPU (TestAxpyAVX2MatchesGeneric).
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	if alpha == 0 {
		return
	}
	if hasAVX2 && len(x) >= axpyMinAVX2 {
		axpyAVX2(alpha, &x[0], &y[0], len(x))
		return
	}
	axpyGeneric(alpha, x, y)
}

// axpyMinAVX2 is the length below which the call into the assembly kernel
// costs more than the portable loop.
const axpyMinAVX2 = 12

// axpyGeneric is the portable y += alpha*x for len(x) == len(y).
func axpyGeneric(alpha float64, x, y []float64) {
	y = y[:len(x)]
	for i, xv := range x {
		y[i] += alpha * xv
	}
}

// axpy4 is four consecutive Axpy calls onto one y — y += alpha[0]·x0, then
// alpha[1]·x1, alpha[2]·x2, alpha[3]·x3 — with y loaded and stored once
// per element instead of four times. Each element receives the same four
// separately rounded updates in the same order, and a zero alpha is still
// skipped (0·Inf must not reach y), so the result is bit for bit that of
// the four calls. One call into the kernel replaces four, so unlike Axpy
// it pays at every length.
func axpy4(alpha *[4]float64, x0, x1, x2, x3, y []float64) {
	n := len(y)
	if hasAVX2 && n > 0 && len(x0) == n && len(x1) == n && len(x2) == n && len(x3) == n &&
		alpha[0] != 0 && alpha[1] != 0 && alpha[2] != 0 && alpha[3] != 0 {
		axpy4AVX2(alpha, &x0[0], &x1[0], &x2[0], &x3[0], &y[0], n)
		return
	}
	Axpy(alpha[0], x0, y)
	Axpy(alpha[1], x1, y)
	Axpy(alpha[2], x2, y)
	Axpy(alpha[3], x3, y)
}

// ScaleVec multiplies x by s in place.
func ScaleVec(s float64, x []float64) {
	for i := range x {
		x[i] *= s
	}
}

// Normalize scales x to unit norm in place and returns the original norm.
// A zero vector is left unchanged and 0 is returned.
func Normalize(x []float64) float64 {
	n := Norm(x)
	if n == 0 {
		return 0
	}
	ScaleVec(1/n, x)
	return n
}

// clampCos clamps round-off to [-1, 1] with a branch (min/max are slower).
func clampCos(c float64) float64 {
	if c > 1 || c < -1 {
		return math.Copysign(1, c)
	}
	return c
}

// Cosine returns the cosine similarity x·y / (‖x‖‖y‖), or 0 if either
// vector is zero.
func Cosine(x, y []float64) float64 {
	nx, ny := Norm(x), Norm(y)
	if nx == 0 || ny == 0 {
		return 0
	}
	return clampCos(Dot(x, y) / (nx * ny))
}

// Dist returns the Euclidean distance between x and y.
func Dist(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Dist length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, xv := range x {
		d := xv - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// SumVec returns the sum of the entries of x.
func SumVec(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}
