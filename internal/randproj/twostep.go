package randproj

import (
	"fmt"
	"math/rand"

	"repro/internal/lsi"
	"repro/internal/mat"
	"repro/internal/sparse"
	"repro/internal/svd"
)

// TwoStep is the paper's two-step method (Section 5): (1) randomly project
// the term-document matrix A to l dimensions, (2) run rank-2k LSI on the
// projected matrix B. Queries are projected through the same random matrix
// and then folded into the rank-2k space, so retrieval works end to end in
// the compressed space.
type TwoStep struct {
	proj  *Projection
	inner *lsi.Index // rank-2k index over the l-dimensional projected space
	vb    *mat.Dense // m×r right singular vectors of B (r = effective rank)
}

// TwoStepOptions configures NewTwoStep.
type TwoStepOptions struct {
	// Kind selects the projection family; the zero value is the paper's
	// column-orthonormal construction.
	Kind Kind
	// Seed drives both the projection sampling and the inner SVD.
	Seed int64
}

// rankFactor multiplies k for the inner LSI rank ("because of the random
// projection, the number of singular values kept may have to be increased
// a little" — the paper's analysis uses 2k).
const rankFactor = 2

// NewTwoStep projects a (n terms × m documents) down to l dimensions and
// builds a rank-(rankFactor·k) LSI index on the projection.
func NewTwoStep(a *sparse.CSR, k, l int, opts TwoStepOptions) (*TwoStep, error) {
	n, m := a.Dims()
	if k < 1 {
		return nil, fmt.Errorf("randproj: two-step rank k=%d, want >= 1", k)
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 31415
	}
	rng := rand.New(rand.NewSource(seed))
	proj, err := New(n, l, opts.Kind, rng)
	if err != nil {
		return nil, err
	}
	b := proj.ApplySparse(a) // l×m
	rank := rankFactor * k
	if rank > min(l, m) {
		rank = min(l, m)
	}
	// B is small (l×m with l ≪ n): a dense decomposition is cheap and
	// exact, matching the O(ml²) term of the paper's cost analysis.
	res, err := svd.Decompose(b)
	if err != nil {
		return nil, fmt.Errorf("randproj: SVD of projected matrix: %w", err)
	}
	res = res.Truncate(rank)
	inner, err := lsi.NewIndexFromSVD(res, l)
	if err != nil {
		return nil, err
	}
	return &TwoStep{proj: proj, inner: inner, vb: res.V}, nil
}

// Rank returns the effective inner LSI rank (≈ 2k).
func (ts *TwoStep) Rank() int { return ts.inner.K() }

// NumDocs returns the number of indexed documents.
func (ts *TwoStep) NumDocs() int { return ts.inner.NumDocs() }

// DocVector returns document j's representation in the rank-2k space.
func (ts *TwoStep) DocVector(j int) []float64 { return ts.inner.DocVector(j) }

// DocVectors returns the m×2k document representation matrix (shared
// storage; callers must not mutate).
func (ts *TwoStep) DocVectors() *mat.Dense { return ts.inner.DocVectors() }

// Project folds a term-space query through the random projection and into
// the rank-2k space.
func (ts *TwoStep) Project(q []float64) []float64 {
	return ts.inner.Project(ts.proj.Apply(q))
}

// Search ranks documents against a term-space query by cosine similarity
// in the rank-2k space.
func (ts *TwoStep) Search(query []float64, topN int) []lsi.Match {
	return ts.inner.SearchProjected(ts.Project(query), topN)
}

// ApproxMatrix returns B₂ₖ = A·Σᵢ bᵢbᵢᵀ (Theorem 5's approximation): the
// original matrix with its rows projected onto the span of the top right
// singular vectors of B. It materializes an n×m dense matrix.
func (ts *TwoStep) ApproxMatrix(a *sparse.CSR) *mat.Dense {
	n, m := a.Dims()
	if ts.vb.Rows() != m {
		panic(fmt.Sprintf("randproj: matrix has %d columns, index was built over %d", m, ts.vb.Rows()))
	}
	w := a.MulDense(ts.vb) // n×r = A·V_b
	_ = n
	return mat.MulBT(w, ts.vb) // (A·V_b)·V_bᵀ
}

// Theorem5Residual computes both sides of Theorem 5 for the given matrix:
// lhs = ‖A−B₂ₖ‖²_F and the direct-LSI residual ‖A−Aₖ‖²_F (from a full
// dense SVD), along with ‖A‖²_F. The caller checks
// lhs ≤ ‖A−Aₖ‖²_F + 2ε‖A‖²_F for its chosen ε.
func (ts *TwoStep) Theorem5Residual(a *sparse.CSR, k int) (lhs, directResidual, frobSq float64, err error) {
	ad := a.ToDense()
	full, err := svd.Decompose(ad)
	if err != nil {
		return 0, 0, 0, err
	}
	var tail float64
	for i, s := range full.S {
		if i >= k {
			tail += s * s
		}
	}
	b2k := ts.ApproxMatrix(a)
	diff := mat.SubMat(ad, b2k).Frob()
	f := ad.Frob()
	return diff * diff, tail, f * f, nil
}
