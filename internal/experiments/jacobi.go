package experiments

import (
	"math"
	"sort"

	"repro/internal/mat"
	"repro/internal/svd"
)

// Jacobi computes the SVD of a dense matrix using the one-sided Jacobi
// (Hestenes) method. It is the most accurate SVD in the repository —
// singular values are computed to nearly full machine precision even for
// badly scaled matrices — at O(sweeps·n²·m) cost, so it serves as the
// reference implementation against which Golub–Reinsch and Lanczos are
// validated. The returned rank equals min(rows, cols); zero singular values
// carry zero columns in U.
func Jacobi(a *mat.Dense) (*svd.Result, error) {
	rows, cols := a.Dims()
	if rows == 0 || cols == 0 {
		return &svd.Result{U: mat.NewDense(rows, 0), S: nil, V: mat.NewDense(cols, 0)}, nil
	}
	if rows < cols {
		// Decompose the transpose and swap factors: Aᵀ = UΣVᵀ ⇒ A = VΣUᵀ.
		res, err := Jacobi(a.T())
		if err != nil {
			return nil, err
		}
		return &svd.Result{U: res.V, S: res.S, V: res.U}, nil
	}

	w := a.Clone() // working copy; columns converge to U·diag(S)
	v := mat.Identity(cols)
	const maxSweeps = 60
	const tol = 1e-15

	for sweep := 0; sweep < maxSweeps; sweep++ {
		rotated := false
		for p := 0; p < cols-1; p++ {
			for q := p + 1; q < cols; q++ {
				// Gram entries of the (p,q) column pair.
				var alpha, beta, gamma float64
				for i := 0; i < rows; i++ {
					wp := w.At(i, p)
					wq := w.At(i, q)
					alpha += wp * wp
					beta += wq * wq
					gamma += wp * wq
				}
				if alpha == 0 || beta == 0 {
					continue
				}
				if math.Abs(gamma) <= tol*math.Sqrt(alpha*beta) {
					continue
				}
				rotated = true
				// Jacobi rotation annihilating the off-diagonal Gram entry.
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1/(math.Abs(zeta)+math.Sqrt(1+zeta*zeta)), zeta)
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i := 0; i < rows; i++ {
					wp := w.At(i, p)
					wq := w.At(i, q)
					w.Set(i, p, c*wp-s*wq)
					w.Set(i, q, s*wp+c*wq)
				}
				for i := 0; i < cols; i++ {
					vp := v.At(i, p)
					vq := v.At(i, q)
					v.Set(i, p, c*vp-s*vq)
					v.Set(i, q, s*vp+c*vq)
				}
			}
		}
		if !rotated {
			break
		}
		if sweep == maxSweeps-1 {
			return nil, svd.ErrNoConvergence
		}
	}

	// Column norms are the singular values, sorted descending; the
	// normalized columns form U.
	s, order := make([]float64, cols), make([]int, cols)
	for j := range s {
		s[j], order[j] = mat.Norm(w.Col(j)), j
	}
	sort.SliceStable(order, func(x, y int) bool { return s[order[x]] > s[order[y]] })
	res := &svd.Result{U: mat.NewDense(rows, cols), S: make([]float64, cols), V: mat.NewDense(cols, cols)}
	for j, p := range order {
		res.S[j] = s[p]
		res.V.SetCol(j, v.Col(p))
		for i := 0; s[p] > 0 && i < rows; i++ {
			res.U.Set(i, j, w.At(i, p)/s[p])
		}
	}
	return res, nil
}
