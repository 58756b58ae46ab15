package mat

import "fmt"

// The query hot path's fused kernels. They exist to cut per-query work
// that the general-purpose routines redo on every call: MulTVecSparse
// folds a sparse query into the latent space touching only the nonzero
// rows of the basis, and DotNorm32 scores one stored document with a
// single dot product against norms that were computed once at build/load
// time (DotNorm is its float64-row form, for centroids).

// MulTVecSparse accumulates aᵀ·q into dst for a query given in sparse
// form as parallel term/weight slices: dst[j] = Σᵢ weights[i]·a(terms[i], j).
// Only the rows of a named by terms are touched, so the cost is
// O(nnz(q)·cols) instead of MulTVec's O(rows·cols) scan. dst must have
// length a.Cols() and is zeroed first.
//
// Accumulation follows slice order; callers that need bitwise equality
// with MulTVec over the densified query (which scans rows in ascending
// order, skipping zeros) must pass terms strictly ascending — sorted and
// deduplicated. Duplicated terms are accepted and accumulate per entry,
// which matches the densified query only up to rounding (w₁·a + w₂·a
// versus (w₁+w₂)·a). It panics on slice-length mismatch or an
// out-of-range term.
func MulTVecSparse(a *Dense, terms []int, weights []float64, dst []float64) {
	if len(terms) != len(weights) {
		panic(fmt.Sprintf("mat: MulTVecSparse %d terms but %d weights", len(terms), len(weights)))
	}
	if len(dst) != a.cols {
		panic(fmt.Sprintf("mat: MulTVecSparse dst length %d, want %d", len(dst), a.cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i, t := range terms {
		if t < 0 || t >= a.rows {
			panic(fmt.Sprintf("mat: MulTVecSparse term %d out of range [0,%d)", t, a.rows))
		}
		w := weights[i]
		if w == 0 {
			continue
		}
		row := a.data[t*a.cols : (t+1)*a.cols]
		for j, av := range row {
			dst[j] += w * av
		}
	}
}

// DotInt8 returns the integer dot product Σᵢ x[i]·y[i] of two int8
// vectors, accumulating in int32 — the quantized counterpart of the
// float64 dot inside DotNorm. With codes bounded by |c| ≤ 127 the
// per-element product is bounded by 127² = 16129, so the accumulator
// cannot overflow before ~133k elements — far beyond any latent rank
// this system projects to. The loop is unrolled four-wide over two
// independent accumulators so the compiler can schedule the widening
// multiplies without a loop-carried dependency on every add; integer
// accumulation is exact, which is what makes every quantized scan
// bitwise-deterministic regardless of how callers chunk the work. It
// panics on length mismatch.
func DotInt8(x, y []int8) int32 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: DotInt8 length mismatch %d vs %d", len(x), len(y)))
	}
	var s0, s1 int32
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += int32(x[i])*int32(y[i]) + int32(x[i+1])*int32(y[i+1])
		s1 += int32(x[i+2])*int32(y[i+2]) + int32(x[i+3])*int32(y[i+3])
	}
	for ; i < len(x); i++ {
		s0 += int32(x[i]) * int32(y[i])
	}
	return s0 + s1
}

// DotInt8Blocked computes the integer dot of q against a block of
// consecutive code rows: dots[j] = Σᵢ q[i]·codes[j·dim+i] for
// j in [0, len(dots)), with dim = len(q). The query is pre-widened to
// int16 once per search — int16 holds every quantized value exactly
// (codes are in [-127, 127]) and is the lane width the AVX2 kernel
// consumes. One call scores a whole block,
// so the per-document overhead of the quantized scan — call, slice
// bounds, loop setup — amortizes over the block instead of repeating per
// row. On amd64 with AVX2 the block is scored by the VPMADDWD kernel in
// dotint8_amd64.s (16 int8·int16 products and a pairwise int32 add per
// instruction — products are bounded by 127², so the widening add cannot
// overflow) with any dim%16 tail finished by the scalar loop below; both
// paths accumulate in exact int32 lanes, so the result is identical on
// every CPU. It panics when codes is not exactly len(dots)·len(q)
// elements.
func DotInt8Blocked(q []int16, codes []int8, dots []int32) {
	dim := len(q)
	if len(codes) != len(dots)*dim {
		panic(fmt.Sprintf("mat: DotInt8Blocked %d codes for %d rows of dim %d", len(codes), len(dots), dim))
	}
	if hasAVX2 && dim >= 16 && len(dots) > 0 {
		dim16 := dim &^ 15
		dotInt8BlockedAVX2(&q[0], &codes[0], &dots[0], dim, len(dots), dim16)
		if dim16 == dim {
			return
		}
		qt := q[dim16:]
		for j := range dots {
			var s int32
			yt := codes[j*dim+dim16 : (j+1)*dim : (j+1)*dim]
			for i, c := range yt {
				s += int32(qt[i]) * int32(c)
			}
			dots[j] += s
		}
		return
	}
	dotInt8BlockedGeneric(q, codes, dots)
}

// dotInt8BlockedGeneric is the portable scalar row loop behind
// DotInt8Blocked — a register-friendly row body unrolled over four
// independent accumulators. It is also the reference the AVX2 path is
// cross-checked against.
func dotInt8BlockedGeneric(q []int16, codes []int8, dots []int32) {
	dim := len(q)
	off := 0
	for j := range dots {
		y := codes[off : off+dim : off+dim]
		off += dim
		var s0, s1, s2, s3 int32
		i := 0
		for ; i+8 <= len(y); i += 8 {
			ys := y[i : i+8 : i+8]
			qs := q[i : i+8 : i+8]
			s0 += int32(qs[0])*int32(ys[0]) + int32(qs[4])*int32(ys[4])
			s1 += int32(qs[1])*int32(ys[1]) + int32(qs[5])*int32(ys[5])
			s2 += int32(qs[2])*int32(ys[2]) + int32(qs[6])*int32(ys[6])
			s3 += int32(qs[3])*int32(ys[3]) + int32(qs[7])*int32(ys[7])
		}
		for ; i < len(y); i++ {
			s0 += int32(q[i]) * int32(y[i])
		}
		dots[j] = s0 + s1 + s2 + s3
	}
}

// DotNorm returns the cosine x·y/(nx·ny) clamped to [-1, 1] given the
// precomputed Euclidean norms nx and ny, or 0 if either norm is 0 — the
// fused kernel for float64 rows (IVF centroids; documents go through
// DotNorm32). Where Cosine makes five passes per pair (two per norm plus
// the dot), DotNorm makes one: the query norm is computed once per query
// and every row norm once per build or load. The division and clamp
// mirror Cosine exactly, so for norms produced by Norm the result is
// bitwise identical to Cosine(x, y). It panics on length mismatch.
func DotNorm(x, y []float64, nx, ny float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: DotNorm length mismatch %d vs %d", len(x), len(y)))
	}
	if nx == 0 || ny == 0 {
		return 0
	}
	var dot float64
	for i, xv := range x {
		dot += xv * y[i]
	}
	return clampCos(dot / (nx * ny))
}

// DotNorm32 is DotNorm for a stored float32 row y and a float64 query x, all
// arithmetic float64: the search path's one document scorer (internal/scan).
func DotNorm32(x []float64, y []float32, nx, ny float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: DotNorm32 length mismatch %d vs %d", len(x), len(y)))
	}
	if nx == 0 || ny == 0 {
		return 0
	}
	if hasAVX2 { // dot32_amd64.s: dot32Generic's bits, four elements an instruction
		return clampCos(dot32AVX2(x, y) / (nx * ny))
	}
	return clampCos(dot32Generic(x, y) / (nx * ny))
}

// dot32Generic is DotNorm32's dot in a shape fixed so its bits do not
// depend on the CPU: element i of each 16-element block in accumulator
// i/4, lane i%4; a 4-element block after them in accumulator 0; the sum
// (a0+a1)+(a2+a3) lane-wise, the lanes (l0+l2)+(l1+l3), then the last
// len%4 products in turn. Each product is rounded by an explicit
// conversion, so no compiler fuses it into an FMA on any architecture.
func dot32Generic(x []float64, y []float32) float64 {
	var a0, a1, a2, a3 lanes
	i := 0
	for ; i+16 <= len(x); i += 16 {
		a0, a1 = a0.add(x[i:], y[i:]), a1.add(x[i+4:], y[i+4:])
		a2, a3 = a2.add(x[i+8:], y[i+8:]), a3.add(x[i+12:], y[i+12:])
	}
	for ; i+4 <= len(x); i += 4 {
		a0 = a0.add(x[i:], y[i:])
	}
	s := (((a0.l0 + a1.l0) + (a2.l0 + a3.l0)) + ((a0.l2 + a1.l2) + (a2.l2 + a3.l2))) +
		(((a0.l1 + a1.l1) + (a2.l1 + a3.l1)) + ((a0.l3 + a1.l3) + (a2.l3 + a3.l3)))
	for ; i < len(x); i++ {
		s += float64(x[i] * float64(y[i]))
	}
	return s
}

// lanes is one accumulator: a struct, so it lives in registers.
type lanes struct{ l0, l1, l2, l3 float64 }

// add returns a plus x[l]·y[l] in lane l.
func (a lanes) add(x []float64, y []float32) lanes {
	x, y = x[:4:4], y[:4:4]
	return lanes{a.l0 + float64(x[0]*float64(y[0])), a.l1 + float64(x[1]*float64(y[1])),
		a.l2 + float64(x[2]*float64(y[2])), a.l3 + float64(x[3]*float64(y[3]))}
}
