// Package quant implements per-document symmetric int8 scalar
// quantization of the projected document matrix — the bandwidth
// optimization of the scoring hot path. At large corpus sizes the
// exhaustive and in-cell scans are memory-bound on the stored float32
// rows; the paper's JL projection argument (Lemma 2) already licenses
// lossy representation of the latent space, and quantizing each projected
// document row, rotated, to int8 with one per-document scale cuts the
// matrix footprint 4× so the scan streams codes instead of floats.
//
// Search is two-stage: a quantized scan scores every candidate with the
// integer kernel mat.DotInt8 and keeps an over-fetched topN·β set, then
// an exact float64 rerank through the float path's own scorer (scan.Float,
// mat.DotNorm32) restores the final (score desc, doc asc) order. The
// integer accumulation is exact and the per-document approximate score
// is a pure function of the stored codes, so quantized results are
// bitwise-deterministic for every worker count, exactly like the float
// scan.
//
// A Matrix is derived state, rebuilt from the float matrix it mirrors in
// one deterministic pass (Quantize takes no seed), and persisted as a
// versioned section beside its segment's (see Encode/Read), which a server
// reads from a mapping.
package quant

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/blob"
	"repro/internal/mat"
	"repro/internal/par"
)

// MaxCode is the largest code magnitude Quantize emits. The symmetric
// range [-127, 127] deliberately excludes -128 so negation never
// overflows and every code dequantizes to code·scale with
// |error| ≤ scale/2.
const MaxCode = 127

// Matrix is the int8 shadow of a projected document matrix: one
// contiguous row of codes per document plus one float per document, kept
// as parallel arrays so the scan streams codes sequentially and touches
// the floats once per row.
type Matrix struct {
	dim   int
	codes []int8 // ndocs × dim, row-major; doc j at codes[j*dim:(j+1)*dim]
	// sn[j] = scale[j]/‖row j‖ in float32 (0 for a zero row), where R·row
	// j ≈ codes[j]·scale[j]: the one per-document float the stage-1 scan
	// reads beyond the integer dot. Nothing reads the scale alone.
	sn  []float64
	rot rotation // R, for the query
	// mapped is the sidecar file codes and sn are views of; nil for heap
	// arrays. The Matrix holds it, and code reading the arrays past its
	// last use of the Matrix ends in runtime.KeepAlive(m) (DESIGN.md §2).
	mapped *blob.Mapping
}

// Dim returns the latent dimension each document row quantizes.
func (m *Matrix) Dim() int { return m.dim }

// NumDocs returns the number of quantized document rows.
func (m *Matrix) NumDocs() int { return len(m.sn) }

// Bytes returns the footprint of the quantized representation (codes
// plus sn), mapped or not — the number the serving layer reports so
// operators can size the ~4× reduction against the float32 matrix.
func (m *Matrix) Bytes() int64 {
	return int64(len(m.codes)) + 8*int64(len(m.sn))
}

// MappedBytes is the bytes of codes and sn that are views of the sidecar
// file, or 0.
func (m *Matrix) MappedBytes() int64 {
	return blob.Viewed(m.mapped, m.codes) + blob.Viewed(m.mapped, m.sn)
}

// Row returns the code row of document j (shared storage, not a copy).
func (m *Matrix) Row(j int) []int8 { return m.codes[j*m.dim : (j+1)*m.dim] }

// rotation is R (DESIGN.md §12): sign flips by a ±1 pattern constant to
// the package and a normalized fast Walsh–Hadamard transform over [0, p),
// p the largest power of two ≤ k, then over [k−p, k) when p < k. Its
// halves hold the two blocks' signs times 1/√p.
type rotation []float64

func newRotation(k int) rotation {
	p := 1 << (bits.Len(uint(k)) - 1)
	r := make(rotation, 2*p)
	for i := range r { // the top bit of splitmix64's i-th output is the sign
		z := (uint64(i) + 1) * 0x9e3779b97f4a7c15
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		r[i] = math.Copysign(1/math.Sqrt(float64(p)), float64(int64(z^z>>31)))
	}
	return r
}

// apply overwrites x, of length k, with Rx.
func (r rotation) apply(x []float64) {
	p := len(r) / 2
	hadamard(x[:p], r[:p])
	if p < len(x) {
		hadamard(x[len(x)-p:], r[p:])
	}
}

// hadamard multiplies x by signs and runs the butterflies of the fast
// Walsh–Hadamard transform over x, a power of two long: two stages a
// pass, the first fused with the signs, and a last lone stage when their
// number is odd (the stages commute).
func hadamard(x, signs []float64) {
	h := 1
	for i := 0; i+4 <= len(x); i += 4 {
		v, s := x[i:i+4:i+4], signs[i:i+4:i+4]
		a, b, c, d := float64(v[0]*s[0]), float64(v[1]*s[1]), float64(v[2]*s[2]), float64(v[3]*s[3]) // no FMA
		v[0], v[1], v[2], v[3] = (a+b)+(c+d), (a-b)+(c-d), (a+b)-(c+d), (a-b)-(c-d)
		h = 4
	}
	for i := 0; h == 1 && i < len(x); i++ {
		x[i] *= signs[i]
	}
	for ; 4*h <= len(x); h *= 4 {
		for i := 0; i < len(x); i += 4 * h {
			a, b, c, d := x[i:i+h], x[i+h:i+2*h], x[i+2*h:i+3*h], x[i+3*h:i+4*h]
			for j := range a {
				p, q, r, t := a[j]+b[j], a[j]-b[j], c[j]+d[j], c[j]-d[j]
				a[j], b[j], c[j], d[j] = p+r, q+t, p-r, q-t
			}
		}
	}
	for j := 0; h < len(x) && j < h; j++ {
		x[j], x[j+h] = x[j]+x[j+h], x[j]-x[j+h]
	}
}

// quantizeVec writes the symmetric int8 quantization of v into dst and
// returns the dequantization scale: scale = max|v|/127 and dst[i] =
// round(v[i]·127/max|v|), so |v[i] − dst[i]·scale| ≤ scale/2 (to one
// rounding). An all-zero vector quantizes to zero codes with scale 0.
func quantizeVec(dst []int8, v []float64) float64 {
	maxAbs := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		clear(dst)
		return 0
	}
	scale, inv := maxAbs/MaxCode, MaxCode/maxAbs
	for i, x := range v {
		c := math.RoundToEven(x * inv)
		// |v[i]| ≤ max|v| keeps the rounded code in range, but clamp
		// anyway so a NaN/Inf row cannot smuggle -128 into the codes.
		if c > MaxCode {
			c = MaxCode
		} else if !(c >= -MaxCode) { // NaN too
			c = -MaxCode
		}
		dst[i] = int8(c)
	}
	return scale
}

// Quantize is Quantize32 over mat.Narrow(vecs).
func Quantize(vecs *mat.Dense) *Matrix { return Quantize32(mat.Narrow(vecs)) }

// Quantize32 builds the int8 shadow of the stored document matrix vecs,
// one independent symmetric quantization per row rotated by R, and
// divides each row's scale by mat.Norm of the row: the call lsi makes for
// the norms it scores with, so sn is the scale over the index's norm. It
// is a pure deterministic function of the input matrix — no seed, no
// iteration — so rebuilding at load time yields a byte-identical sidecar,
// and the row-parallel pass writes disjoint slices only.
func Quantize32(vecs *mat.Dense32) *Matrix {
	rows, cols := vecs.Dims()
	m := &Matrix{
		dim:   cols,
		codes: make([]int8, rows*cols),
		sn:    make([]float64, rows),
		rot:   newRotation(cols),
	}
	par.For(rows, par.GrainFor(cols*(bits.Len(uint(cols))+3)), func(lo, hi int) {
		buf := make([]float64, cols)
		for j := lo; j < hi; j++ {
			row := vecs.Row(j)
			mat.Convert(buf, row)
			m.rot.apply(buf)
			scale := quantizeVec(m.Row(j), buf)
			if n := mat.Norm(row); n != 0 {
				m.sn[j] = float64(float32(scale / n)) // so copies of a document tie (DESIGN.md §12)
			}
		}
	})
	return m
}

// checkSearchArgs panics when the float matrix handed to a search does
// not match the quantized shadow — the same defensive posture as
// ivf.AppendSearch, catching segment/sidecar mixups at the boundary.
func (m *Matrix) checkSearchArgs(vecs *mat.Dense32, norms []float64, pq []float64) {
	rows, cols := vecs.Dims()
	if cols != m.dim || len(pq) != m.dim {
		panic(fmt.Sprintf("quant: dimension mismatch: matrix %d, vecs %d, query %d", m.dim, cols, len(pq)))
	}
	if rows != m.NumDocs() || len(norms) != m.NumDocs() {
		panic(fmt.Sprintf("quant: document count mismatch: matrix %d, vecs %d, norms %d", m.NumDocs(), rows, len(norms)))
	}
}
