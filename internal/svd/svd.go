// Package svd implements the singular value decompositions and symmetric
// eigensolvers that the paper's experiments require, in place of SVDPACK,
// the Fortran Lanczos library the authors used:
//
//   - Decompose: dense full SVD by Golub–Reinsch bidiagonalization + QR
//     iteration (the workhorse).
//   - Randomized: truncated SVD by block subspace iteration on any block
//     operator, sparse term-document matrices in particular — the engine
//     every build and compaction runs.
//
// Both return singular values in descending order with column-orthonormal
// U and V such that A ≈ U·diag(S)·Vᵀ. The Jacobi reference SVD and the
// Lanczos engine live in internal/experiments.
package svd

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/mat"
)

// Result holds a (possibly truncated) singular value decomposition
// A ≈ U·diag(S)·Vᵀ with U (rows×r), S (length r, descending), V (cols×r).
type Result struct {
	U *mat.Dense
	S []float64
	V *mat.Dense
}

// Truncate returns a rank-k view of the decomposition (copying the leading
// k columns of U and V). If k exceeds the stored rank the full result is
// copied.
func (r *Result) Truncate(k int) *Result {
	if k > len(r.S) {
		k = len(r.S)
	}
	return &Result{
		U: r.U.SliceCols(0, k),
		S: append([]float64(nil), r.S[:k]...),
		V: r.V.SliceCols(0, k),
	}
}

// Reconstruct returns U·diag(S)·Vᵀ.
func (r *Result) Reconstruct() *mat.Dense {
	return mat.MulBT(scaleCols(r.U.Clone(), r.S), r.V)
}

// DocSpace returns diag(S)·Vᵀ transposed, i.e. the cols×k matrix whose i-th
// row is the LSI-space representation of column i of the original matrix
// (the "rows of VₖDₖ" the paper uses to represent documents).
func (r *Result) DocSpace() *mat.Dense {
	return scaleCols(r.V.Clone(), r.S)
}

// TakeDocSpace is DocSpace for a caller that is done with r.V: it scales V
// in place and returns it, leaving r.V nil, which saves the cols×k copy.
func (r *Result) TakeDocSpace() *mat.Dense {
	v := r.V
	r.V = nil
	return scaleCols(v, r.S)
}

// scaleCols multiplies column j of m by s[j] in place and returns m.
func scaleCols(m *mat.Dense, s []float64) *mat.Dense {
	rows, k := m.Dims()
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		for j := 0; j < k; j++ {
			row[j] *= s[j]
		}
	}
	return m
}

// sortDescending reorders a decomposition so S is descending, permuting the
// columns of U and V to match, and flips signs so every singular value is
// non-negative.
func sortDescending(u *mat.Dense, s []float64, v *mat.Dense) {
	n := len(s)
	// Make all singular values non-negative first.
	for j := 0; j < n; j++ {
		if s[j] < 0 {
			s[j] = -s[j]
			negateCol(v, j)
		}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s[idx[a]] > s[idx[b]] })
	applyColPermutation(u, idx)
	applyColPermutation(v, idx)
	ns := make([]float64, n)
	for i, p := range idx {
		ns[i] = s[p]
	}
	copy(s, ns)
}

func negateCol(m *mat.Dense, j int) {
	rows, _ := m.Dims()
	for i := 0; i < rows; i++ {
		m.Set(i, j, -m.At(i, j))
	}
}

func applyColPermutation(m *mat.Dense, idx []int) {
	rows, cols := m.Dims()
	tmp := make([]float64, cols)
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		for j, p := range idx {
			tmp[j] = row[p]
		}
		copy(row, tmp)
	}
}

// pythag returns sqrt(a²+b²) without destructive underflow or overflow.
func pythag(a, b float64) float64 {
	absa, absb := math.Abs(a), math.Abs(b)
	if absa > absb {
		r := absb / absa
		return absa * math.Sqrt(1+r*r)
	}
	if absb == 0 {
		return 0
	}
	r := absa / absb
	return absb * math.Sqrt(1+r*r)
}

// signOf returns |a| with the sign of b (Fortran SIGN intrinsic).
func signOf(a, b float64) float64 {
	if b >= 0 {
		return math.Abs(a)
	}
	return -math.Abs(a)
}

// ErrNoConvergence is returned when an iterative decomposition fails to
// converge within its iteration budget.
var ErrNoConvergence = errors.New("svd: iteration did not converge")

func dimError(op string, r, c int) error {
	return fmt.Errorf("svd: %s: invalid dimensions %dx%d", op, r, c)
}
