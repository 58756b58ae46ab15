package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/mat"
	"repro/internal/svd"
)

// Op is a linear operator: anything that can multiply a vector by itself
// and by its transpose. sparse.CSR satisfies it, which lets the Lanczos
// engine run directly on sparse term-document matrices without densifying
// them — the property that made SVDPACK practical for LSI and that
// Section 5's running-time analysis (O(mnc) for sparse A with c nonzeros
// per column) depends on.
type Op interface {
	Dims() (rows, cols int)
	MulVec(x []float64) []float64  // A·x,  len(x) == cols
	MulTVec(x []float64) []float64 // Aᵀ·x, len(x) == rows
}

// LanczosOptions tunes the truncated SVD iteration.
type LanczosOptions struct {
	// Dim is the bidiagonalization dimension p (number of Lanczos steps).
	// Zero means min(2k+20, min(rows, cols)).
	Dim int
	// Reorthogonalize enables full two-pass reorthogonalization of each new
	// Lanczos vector against all previous ones. Disabling it reproduces the
	// classic loss-of-orthogonality failure mode (exposed as an ablation
	// benchmark); production callers should leave it on.
	Reorthogonalize bool
	// Rng seeds the starting vector. Nil means a fixed-seed source, so
	// results are reproducible by default.
	Rng *rand.Rand
}

// Lanczos computes the top-k singular triplets of op using Golub–Kahan–
// Lanczos bidiagonalization, the algorithm family of SVDPACK, the library
// the paper's authors used. The small bidiagonal system is solved with the
// dense Golub–Reinsch engine. With full reorthogonalization the computed
// triplets match dense SVD to ~1e-10 on the experiment matrices. It is an
// experiment baseline; builds and compactions run svd.Randomized.
func Lanczos(op Op, k int, opts LanczosOptions) (*svd.Result, error) {
	rows, cols := op.Dims()
	if rows == 0 || cols == 0 {
		return &svd.Result{U: mat.NewDense(rows, 0), S: nil, V: mat.NewDense(cols, 0)}, nil
	}
	maxRank := min(rows, cols)
	if k <= 0 {
		return nil, fmt.Errorf("experiments: Lanczos: k must be positive, got %d", k)
	}
	if k > maxRank {
		k = maxRank
	}
	p := opts.Dim
	if p <= 0 {
		p = min(2*k+20, maxRank)
	}
	if p < k {
		p = k
	}
	if p > maxRank {
		p = maxRank
	}
	rng := opts.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(42))
	}

	// Lanczos basis vectors: V-side (cols-dim) and U-side (rows-dim).
	vs := make([][]float64, 0, p+1)
	us := make([][]float64, 0, p)
	alpha := make([]float64, 0, p)
	beta := make([]float64, 0, p)

	v := randomUnit(cols, rng)
	vs = append(vs, v)

	newDirection := func(dim int, basis [][]float64) []float64 {
		// Random vector orthogonal to the existing basis — used to continue
		// after a lucky breakdown (an exact invariant subspace was found).
		for attempt := 0; attempt < 20; attempt++ {
			cand := randomUnit(dim, rng)
			orthogonalize(cand, basis, opts.Reorthogonalize)
			if mat.Normalize(cand) > 1e-8 {
				return cand
			}
		}
		return nil
	}

	steps := 0
	for j := 0; j < p; j++ {
		// u_j = A v_j − β_{j−1} u_{j−1}
		u := op.MulVec(vs[j])
		if j > 0 {
			mat.Axpy(-beta[j-1], us[j-1], u)
		}
		orthogonalize(u, us, opts.Reorthogonalize)
		a := mat.Normalize(u)
		if a <= breakdownTol {
			nd := newDirection(rows, us)
			if nd == nil {
				break
			}
			u, a = nd, 0
		}
		us = append(us, u)
		alpha = append(alpha, a)
		steps++

		// w = Aᵀ u_j − α_j v_j
		wv := op.MulTVec(u)
		mat.Axpy(-a, vs[j], wv)
		orthogonalize(wv, vs, opts.Reorthogonalize)
		b := mat.Normalize(wv)
		if b <= breakdownTol {
			if j == p-1 {
				beta = append(beta, 0)
				break
			}
			nd := newDirection(cols, vs)
			if nd == nil {
				beta = append(beta, 0)
				break
			}
			wv, b = nd, 0
		}
		vs = append(vs, wv)
		beta = append(beta, b)
	}
	if steps == 0 {
		// Operator is (numerically) zero.
		return &svd.Result{U: mat.NewDense(rows, 0), S: nil, V: mat.NewDense(cols, 0)}, nil
	}

	// Small bidiagonal matrix B (steps×steps): α on the diagonal, β on the
	// subdiagonal — with the recurrence above, A·V_p = U_p·B where
	// B[j][j] = α_j and B[j][j−1] = β_{j−1} (coefficient of u_j in A v_{j-1}... )
	// Derivation: A v_j = β_{j−1} u_{j−1} + α_j u_j, so B[j−1][j] = β_{j−1}:
	// B is upper bidiagonal with superdiagonal β.
	b := mat.NewDense(steps, steps)
	for j := 0; j < steps; j++ {
		b.Set(j, j, alpha[j])
		if j+1 < steps {
			b.Set(j, j+1, beta[j])
		}
	}
	small, err := svd.Decompose(b)
	if err != nil {
		return nil, fmt.Errorf("experiments: Lanczos inner decomposition: %w", err)
	}

	kk := min(k, len(small.S))
	bigU := basisMatrix(us, rows)
	bigV := basisMatrix(vs[:steps], cols)
	uOut := mat.Mul(bigU, small.U.SliceCols(0, kk))
	vOut := mat.Mul(bigV, small.V.SliceCols(0, kk))
	s := append([]float64(nil), small.S[:kk]...)
	return &svd.Result{U: uOut, S: s, V: vOut}, nil
}

const breakdownTol = 1e-12

// orthogonalize removes from x its components along each basis vector.
// When full is true it performs two passes ("twice is enough").
func orthogonalize(x []float64, basis [][]float64, full bool) {
	passes := 1
	if full {
		passes = 2
	}
	for p := 0; p < passes; p++ {
		for _, b := range basis {
			d := mat.Dot(x, b)
			if d != 0 {
				mat.Axpy(-d, b, x)
			}
		}
		if !full {
			return
		}
	}
}

func randomUnit(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	if mat.Normalize(v) == 0 {
		v[0] = 1
	}
	return v
}

// basisMatrix packs basis vectors as the columns of a dense matrix.
func basisMatrix(basis [][]float64, dim int) *mat.Dense {
	m := mat.NewDense(dim, len(basis))
	for j, b := range basis {
		m.SetCol(j, b)
	}
	return m
}
