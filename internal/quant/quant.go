// Package quant implements per-document symmetric int8 scalar
// quantization of the projected document matrix — the bandwidth
// optimization of the scoring hot path. At large corpus sizes the
// exhaustive and in-cell scans are memory-bound on the stored float32
// rows; the paper's JL projection argument (Lemma 2) already licenses
// lossy representation of the latent space, and quantizing each projected
// document row to int8 with one per-document scale cuts the matrix
// footprint 4× so the scan streams codes instead of floats.
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
// versioned sidecar next to its segment (see Encode/Read), which a server
// reads from a mapping.
package quant

import (
	"fmt"
	"math"

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
	// sn[j] = scale[j]/‖row j‖ (0 for a zero row), where row j ≈
	// codes[j]·scale[j]: the one per-document float the stage-1 scan
	// reads beyond the integer dot. Nothing reads the scale alone.
	sn []float64
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

// MappedBytes is the size of the sidecar file codes and sn are views of,
// or 0.
func (m *Matrix) MappedBytes() int64 { return int64(m.mapped.Len()) }

// Row returns the code row of document j (shared storage, not a copy).
func (m *Matrix) Row(j int) []int8 { return m.codes[j*m.dim : (j+1)*m.dim] }

// quantizeVec writes the symmetric int8 quantization of v into dst and
// returns the dequantization scale: scale = max|v|/127 and
// dst[i] = round(v[i]/scale), so |v[i] − dst[i]·scale| ≤ scale/2. An
// all-zero vector quantizes to zero codes with scale 0.
func quantizeVec[F float32 | float64](dst []int8, v []F) float64 {
	maxAbs := 0.0
	for _, x := range v {
		if a := math.Abs(float64(x)); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return 0
	}
	scale := maxAbs / MaxCode
	for i, x := range v {
		c := math.RoundToEven(float64(x) / scale)
		// RoundToEven of v/scale with |v| ≤ scale·127 stays in range, but
		// clamp anyway so a NaN/Inf row cannot smuggle -128 into the codes.
		if c > MaxCode {
			c = MaxCode
		} else if c < -MaxCode {
			c = -MaxCode
		}
		dst[i] = int8(c)
	}
	return scale
}

// Quantize is Quantize32 over mat.Narrow(vecs).
func Quantize(vecs *mat.Dense) *Matrix { return Quantize32(mat.Narrow(vecs)) }

// Quantize32 builds the int8 shadow of the stored document matrix vecs,
// one independent symmetric quantization per row, and divides each row's
// scale by mat.Norm of the row: the call lsi makes for the norms it
// scores with, so sn is bitwise the scale over the index's norm. It is a
// pure deterministic function of the input matrix — no seed, no
// iteration — so rebuilding at load time yields a byte-identical sidecar,
// and the row-parallel pass writes disjoint slices only.
func Quantize32(vecs *mat.Dense32) *Matrix {
	rows, cols := vecs.Dims()
	m := &Matrix{
		dim:   cols,
		codes: make([]int8, rows*cols),
		sn:    make([]float64, rows),
	}
	par.For(rows, par.GrainFor(2*cols+1), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			row := vecs.Row(j)
			scale := quantizeVec(m.Row(j), row)
			if n := mat.Norm(row); n != 0 {
				m.sn[j] = scale / n
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
