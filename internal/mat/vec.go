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

// Norm returns the Euclidean norm of x.
func Norm(x []float64) float64 {
	// Two-pass scaling avoids overflow for the perturbation experiments,
	// which probe vectors across many orders of magnitude.
	var mx float64
	for _, v := range x {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	if mx == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		r := v / mx
		s += r * r
	}
	return mx * math.Sqrt(s)
}

// Axpy computes y += alpha*x in place. It panics on length mismatch.
// It is the inner loop of the block kernels (CSR·dense products, the Gram
// matrix and triangular solve of QRInPlace), so it is unrolled four-wide
// over fixed-size sub-slices — one bounds check per four elements; each
// element is still one multiply and one add, so the result does not
// depend on the unrolling.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	if alpha == 0 {
		return
	}
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xs := x[i : i+4 : i+4]
		ys := y[i : i+4 : i+4]
		ys[0] += alpha * xs[0]
		ys[1] += alpha * xs[1]
		ys[2] += alpha * xs[2]
		ys[3] += alpha * xs[3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
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

// CloneVec returns a copy of x.
func CloneVec(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// Cosine returns the cosine similarity x·y / (‖x‖‖y‖), or 0 if either
// vector is zero.
func Cosine(x, y []float64) float64 {
	nx, ny := Norm(x), Norm(y)
	if nx == 0 || ny == 0 {
		return 0
	}
	c := Dot(x, y) / (nx * ny)
	// Clamp round-off so downstream acos never sees |c| > 1.
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return c
}

// Angle returns the angle between x and y in radians, in [0, pi].
// If either vector is zero the angle is defined as pi/2.
func Angle(x, y []float64) float64 {
	nx, ny := Norm(x), Norm(y)
	if nx == 0 || ny == 0 {
		return math.Pi / 2
	}
	return math.Acos(Cosine(x, y))
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
