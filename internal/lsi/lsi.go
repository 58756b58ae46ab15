// Package lsi implements latent semantic indexing as described in
// Section 2 of the paper: documents are columns of a term-document matrix
// A; LSI keeps the k largest singular values of A = U·D·Vᵀ and represents
// document j by row j of Vₖ·Dₖ (equivalently, by the projection of column
// j onto the span of Uₖ, the "LSI space of A"). Queries are folded into the
// same space by projecting onto Uₖ, and retrieval ranks documents by cosine
// similarity in the k-dimensional space.
//
// The package also provides the measurement machinery of Section 4: the
// δ-skew of an index on a labeled corpus (how close intratopic pairs are to
// parallel and intertopic pairs to orthogonal) and the intratopic /
// intertopic angle statistics reported in the paper's experiment table.
package lsi

import (
	"fmt"
	"math/rand"

	"repro/internal/blob"
	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/sparse"
	"repro/internal/svd"
)

// Engine selects the SVD algorithm used to build an index.
type Engine int

const (
	// EngineAuto is the one rule serving code builds and compacts by:
	// Randomized, unless min(n, m) < autoDenseBelow.
	EngineAuto Engine = iota
	// EngineDense densifies the matrix and runs the full Golub–Reinsch SVD:
	// the exact reference the tests and experiments compare against.
	EngineDense
	// EngineRandomized runs randomized subspace iteration (robust to the
	// clustered spectra that equal-sized topics produce).
	EngineRandomized
)

// autoDenseBelow is EngineAuto's measured crossover: below it the whole
// matrix is smaller than the randomized engine's sketch and the dense SVD
// is the faster of the two (1,600 terms, k = 64: 2.7 vs 3.2 ms at 16
// documents, even at 24, 10.0 vs 7.6 at 32, 316 vs 25 at 128 — DESIGN.md
// §14, BenchmarkBuildEngines).
const autoDenseBelow = 32

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineDense:
		return "dense"
	case EngineRandomized:
		return "randomized"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Options configures index construction.
type Options struct {
	// Engine selects the SVD algorithm; the zero value is EngineAuto.
	Engine Engine
	// Seed seeds the randomized engines; builds are deterministic for a
	// fixed seed, and EngineRandomized is bitwise independent of
	// par.MaxProcs. Zero means a fixed default.
	Seed int64
}

// Index is a rank-k LSI index over a corpus of m documents and n terms.
// Document vectors are stored as float32 (2⁻²⁴ relative, far inside the
// paper's (1 ± ε) bounds); the basis, σ, norms and arithmetic are float64.
type Index struct {
	k        int
	numTerms int
	uk       *mat.Dense   // n×k: columns span the LSI space
	sigma    []float64    // k singular values, descending
	docs     *mat.Dense32 // m×k: row j is document j's LSI representation
	norms    []float64    // ‖docs.Row(j)‖, precomputed so scoring never re-derives them
	// mapped is the file uk, sigma and (until fold-in copies them) docs
	// are views of; nil for heap arrays. The Index loaded from a mapping
	// holds it (as do its two matrices, for callers that keep Docs or Basis
	// and drop the Index), an Index sharing its uk inherits it, the garbage
	// collector releases it. A row slice holds nothing: code reading rows
	// past its last use of the Index ends in runtime.KeepAlive(ix).
	mapped *blob.Mapping
}

// MappedBytes is the bytes of the arrays that are views of the mapped
// file: the basis, the singular values and, read from a v4 file until a
// fold-in copies them, the documents (v3's are narrowed onto the heap).
// The file's other sections are not among them.
func (ix *Index) MappedBytes() int64 {
	return blob.Viewed(ix.mapped, ix.uk.RawData()) + blob.Viewed(ix.mapped, ix.sigma) + blob.Viewed(ix.mapped, ix.docs.RawData())
}

// newIndex assembles an Index and precomputes the per-document norms the
// scoring kernel divides by. Every constructor (build, SVD wrap, load,
// fold-in) funnels through this or extends norms itself, so a norm is
// computed exactly once per document lifetime instead of once per
// (query, document) pair. Given a float64 matrix from instead of docs, it
// stores from's values rounded to float32 in the same pass, so narrowing
// costs the build no pass of its own; a norm is always of the stored row.
func newIndex(k, numTerms int, uk *mat.Dense, sigma []float64, docs *mat.Dense32, from *mat.Dense) *Index {
	if docs == nil {
		docs = mat.NewDense32(from.Dims())
	}
	ix := &Index{k: k, numTerms: numTerms, uk: uk, sigma: sigma, docs: docs}
	m := docs.Rows()
	ix.norms = make([]float64, m)
	par.For(m, par.GrainFor(2*k+1), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			if from != nil {
				mat.Convert(docs.Row(j), from.Row(j))
			}
			ix.norms[j] = mat.Norm(docs.Row(j))
		}
	})
	return ix
}

// Build constructs a rank-k index from a term-document matrix (terms as
// rows, documents as columns). k is clamped to the matrix rank bound
// min(n, m); it returns an error if k < 1 or the matrix is empty.
func Build(a *sparse.CSR, k int, opts Options) (*Index, error) {
	n, m := a.Dims()
	if n == 0 || m == 0 {
		return nil, fmt.Errorf("lsi: empty term-document matrix %dx%d", n, m)
	}
	if k < 1 {
		return nil, fmt.Errorf("lsi: rank k = %d, want >= 1", k)
	}
	if k > min(n, m) {
		k = min(n, m)
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 271828
	}
	engine := opts.Engine
	if engine == EngineAuto {
		engine = EngineRandomized
		if min(n, m) < autoDenseBelow {
			engine = EngineDense
		}
	}
	var res *svd.Result
	var err error
	switch engine {
	case EngineDense:
		res, err = svd.Decompose(a.ToDense())
	case EngineRandomized:
		res, err = svd.Randomized(a.Block(), k, svd.RandomizedOptions{
			Rng: rand.New(rand.NewSource(seed)),
		})
	default:
		return nil, fmt.Errorf("lsi: unknown engine %d", int(opts.Engine))
	}
	if err != nil {
		return nil, fmt.Errorf("lsi: SVD failed: %w", err)
	}
	// The truncated engines return exactly k triplets and Build owns the
	// result, so neither the rank-k copy nor DocSpace's clone of V is
	// needed: two fewer docs×k allocations per build and per compaction.
	if len(res.S) > k {
		res = res.Truncate(k)
	}
	return newIndex(len(res.S), n, res.U, res.S, nil, res.TakeDocSpace()), nil
}

// NewIndexFromSVD wraps an existing (truncated) SVD as an index. numTerms
// must match the row dimension of res.U; it is the length of vectors
// accepted by Project. The random-projection layer uses this to build its
// rank-2k index over the projected matrix B (Section 5).
func NewIndexFromSVD(res *svd.Result, numTerms int) (*Index, error) {
	if res.U.Rows() != numTerms {
		return nil, fmt.Errorf("lsi: SVD row space %d does not match numTerms %d", res.U.Rows(), numTerms)
	}
	return newIndex(len(res.S), numTerms, res.U, append([]float64(nil), res.S...), nil, res.DocSpace()), nil
}

// K returns the effective rank of the index (it may be below the requested
// rank for degenerate matrices).
func (ix *Index) K() int { return ix.k }

// NumTerms returns the vocabulary size the index was built over.
func (ix *Index) NumTerms() int { return ix.numTerms }

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int { return ix.docs.Rows() }

// SingularValues returns a copy of the retained singular values.
func (ix *Index) SingularValues() []float64 {
	return append([]float64(nil), ix.sigma...)
}

// DocVector returns document j's k-dimensional representation (row j of
// Vₖ·Dₖ as stored), widened to a new float64 slice.
func (ix *Index) DocVector(j int) []float64 {
	v := make([]float64, ix.k)
	mat.Convert(v, ix.docs.Row(j))
	return v
}

// DocVectors returns the m×k document representations widened to a new
// float64 matrix, for offline analysis (callers must not mutate it:
// mat.Narrow of it is the stored matrix itself).
func (ix *Index) DocVectors() *mat.Dense { return ix.docs.Widen() }

// Docs returns the stored m×k float32 document matrix (shared storage;
// callers must not mutate).
func (ix *Index) Docs() *mat.Dense32 { return ix.docs }

// Norms returns the precomputed per-document Euclidean norms ‖docs.Row(j)‖
// (shared storage; callers must not mutate). External scoring loops — the
// segment fan-out of the sharded index — use these with mat.DotNorm32 to
// reproduce Search's scores exactly.
func (ix *Index) Norms() []float64 { return ix.norms }

// Basis returns the n×k orthonormal basis Uₖ of the LSI space (shared
// storage; callers must not mutate).
func (ix *Index) Basis() *mat.Dense { return ix.uk }
