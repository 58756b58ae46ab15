package mat

import (
	"fmt"
	"math"

	"repro/internal/par"
)

// QR computes the thin Householder QR factorization a = Q*R, where Q is
// m x n with orthonormal columns and R is n x n upper triangular.
// It requires m >= n and panics otherwise.
//
// QR is used to orthonormalize random Gaussian matrices into the
// column-orthonormal projection matrices R of Section 5 of the paper; it
// runs on column-major scratch so the Householder inner loops stream over
// contiguous memory.
func QR(a *Dense) (q, r *Dense) {
	m, n := a.Dims()
	if m < n {
		panic(fmt.Sprintf("mat: QR requires rows >= cols, got %dx%d", m, n))
	}
	// Column-major working copy: w[j*m+i] = a[i][j]. The Householder tails
	// live in the strictly-lower part of each column; v0 (the leading
	// reflector component) and beta = 2/vᵀv are kept aside.
	w := make([]float64, m*n)
	for i := 0; i < m; i++ {
		row := a.Row(i)
		for j, v := range row {
			w[j*m+i] = v
		}
	}
	betas := make([]float64, n)
	v0s := make([]float64, n)
	for k := 0; k < n; k++ {
		ck := w[k*m:] // column k
		var norm float64
		for i := k; i < m; i++ {
			norm += ck[i] * ck[i]
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			continue
		}
		alpha := ck[k]
		if alpha > 0 {
			norm = -norm
		}
		v0 := alpha - norm
		ck[k] = norm // becomes R[k,k]
		vtv := v0 * v0
		for i := k + 1; i < m; i++ {
			vtv += ck[i] * ck[i]
		}
		if vtv == 0 {
			continue
		}
		beta := 2 / vtv
		betas[k] = beta
		v0s[k] = v0
		// Apply H = I - beta v vᵀ to the trailing columns.
		for j := k + 1; j < n; j++ {
			cj := w[j*m:]
			s := v0 * cj[k]
			for i := k + 1; i < m; i++ {
				s += ck[i] * cj[i]
			}
			s *= beta
			cj[k] -= s * v0
			for i := k + 1; i < m; i++ {
				cj[i] -= s * ck[i]
			}
		}
	}
	r = NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			r.Set(i, j, w[j*m+i])
		}
	}
	// Accumulate Q = H_0 H_1 ... H_{n-1} * I_{m x n} in column-major
	// scratch, applying the reflectors in reverse order.
	qc := make([]float64, m*n)
	for j := 0; j < n; j++ {
		qc[j*m+j] = 1
	}
	for k := n - 1; k >= 0; k-- {
		if betas[k] == 0 {
			continue
		}
		v0 := v0s[k]
		beta := betas[k]
		ck := w[k*m:]
		for j := 0; j < n; j++ {
			cj := qc[j*m:]
			s := v0 * cj[k]
			for i := k + 1; i < m; i++ {
				s += ck[i] * cj[i]
			}
			s *= beta
			cj[k] -= s * v0
			for i := k + 1; i < m; i++ {
				cj[i] -= s * ck[i]
			}
		}
	}
	q = NewDense(m, n)
	for i := 0; i < m; i++ {
		row := q.Row(i)
		for j := 0; j < n; j++ {
			row[j] = qc[j*m+i]
		}
	}
	return q, r
}

// mgs runs modified Gram-Schmidt on the columns of a in place, returning
// the number of columns that survived. A column that is linearly
// dependent on earlier ones — what is left of it after projecting them
// out is at most tol times its original norm — is zeroed; the relative
// test keeps the outcome independent of the matrix's scale. It is the
// serial reference for QRInPlace, and the path QRInPlace takes when its
// Cholesky factorization breaks down. When r is a zeroed n×n matrix it
// also accumulates the upper-triangular factor with a_in = a_out·r: the
// projection coefficients above the diagonal, the residual norms on it,
// and a zero diagonal entry for every zeroed column.
func mgs(a *Dense, tol float64, r *Dense) int {
	m, n := a.Dims()
	// Column-major scratch for contiguous inner loops.
	w := make([]float64, m*n)
	for i := 0; i < m; i++ {
		row := a.Row(i)
		for j, v := range row {
			w[j*m+i] = v
		}
	}
	kept := 0
	zeroed := make([]bool, n)
	for j := 0; j < n; j++ {
		cj := w[j*m : (j+1)*m]
		orig := Norm(cj)
		// Two rounds of MGS against all previous kept columns ("twice is
		// enough" reorthogonalization).
		for pass := 0; pass < 2; pass++ {
			for p := 0; p < j; p++ {
				if zeroed[p] {
					continue
				}
				cp := w[p*m : (p+1)*m]
				var dot float64
				for i := 0; i < m; i++ {
					dot += cj[i] * cp[i]
				}
				if dot == 0 {
					continue
				}
				for i := 0; i < m; i++ {
					cj[i] -= dot * cp[i]
				}
				if r != nil {
					r.data[p*n+j] += dot
				}
			}
		}
		nrm := Norm(cj)
		if nrm <= tol*orig {
			for i := range cj {
				cj[i] = 0
			}
			zeroed[j] = true
			continue
		}
		for i := range cj {
			cj[i] /= nrm
		}
		if r != nil {
			r.data[j*n+j] = nrm
		}
		kept++
	}
	for i := 0; i < m; i++ {
		row := a.Row(i)
		for j := 0; j < n; j++ {
			row[j] = w[j*m+i]
		}
	}
	return kept
}

// cholBreakdown is the relative pivot below which cholQR gives up: a
// pivot of ρ·G[j][j] means column j keeps a fraction √ρ of its length
// after projecting out the earlier columns, and one Cholesky pass leaves
// an orthogonality error of order ε/ρ. 1e-10 keeps that error near 1e-6:
// far inside what QRInPlace's second pass corrects to machine precision,
// and small enough that the basis OrthoInPlace leaves spans the same
// subspace to working accuracy.
const cholBreakdown = 1e-10

// QRInPlace overwrites a (m×n) with the orthonormal factor Q of its thin
// QR factorization and returns the n×n upper-triangular R with
// a_in = Q·R, plus the number of nonzero columns of Q. It is the blocked,
// parallel replacement for modified Gram-Schmidt (mgs) on tall matrices:
// CholeskyQR2 — twice, form the Gram matrix G = aᵀa over fixed row panels
// summed in panel order, factor G = RᵀR, and solve a ← a·R⁻¹ row by row —
// working on a itself with O(n²) scratch, and bitwise independent of
// par.MaxProcs.
//
// CholeskyQR squares the condition number, so it cannot handle columns
// that are (nearly) dependent. It notices from its own pivots: when one
// falls below cholBreakdown relative to its diagonal entry, the remaining
// work is handed to mgs, whose semantics then apply — columns dependent on
// earlier ones within tol (relative to their own norm) are zeroed in Q and
// get a zero diagonal entry in R. On well-conditioned input every column
// survives and tol plays no part.
func QRInPlace(a *Dense, tol float64) (r *Dense, kept int) {
	return cholQRPasses(a, tol, 2)
}

// OrthoInPlace is QRInPlace stopped after its first CholeskyQR pass, for
// callers that need the column space of a and not the factorization: the
// columns it leaves span what a's did (exactly, in exact arithmetic) but
// are orthonormal only to about ε/cholBreakdown ≈ 1e-6 in the worst case
// cholQR accepts — enough for a basis the next block product of a
// subspace iteration overwrites, at half the cost. The breakdown test, the
// mgs fallback (whose columns are orthonormal to machine precision) and
// the independence of par.MaxProcs are QRInPlace's.
func OrthoInPlace(a *Dense, tol float64) (kept int) {
	_, kept = cholQRPasses(a, tol, 1)
	return kept
}

func cholQRPasses(a *Dense, tol float64, passes int) (r *Dense, kept int) {
	n := a.cols
	for pass := 0; pass < passes; pass++ {
		g, ok := cholQR(a)
		if !ok {
			g = NewDense(n, n)
			kept = mgs(a, tol, g)
			if r != nil {
				g = Mul(g, r)
			}
			return g, kept
		}
		if r != nil {
			g = Mul(g, r)
		}
		r = g
	}
	return r, n
}

// cholQR is one CholeskyQR pass: it overwrites a with a·R⁻¹ and returns
// R, the upper-triangular Cholesky factor of aᵀa. On a pivot breakdown it
// returns false and leaves a untouched.
//
// Both halves are triangular rank-one updates, an Axpy of average length
// n/2 each, and both take them four at a time through axpy4 so the
// accumulator row is loaded and stored once per four updates: the Gram
// matrix over four rows of a, the substitution over four rows of R below
// a 4-wide diagonal block. Every element still receives the same
// additions in the same order as the one-at-a-time loop
// (TestCholQRBitwiseMatchesReference keeps that loop).
func cholQR(a *Dense) (*Dense, bool) {
	n := a.cols
	g := NewDense(n, n)
	panelReduce(a.rows, g.data, func(lo, hi int, acc []float64) {
		k := lo
		for ; k+4 <= hi; k += 4 {
			x0 := a.data[k*n : (k+1)*n]
			x1 := a.data[(k+1)*n : (k+2)*n]
			x2 := a.data[(k+2)*n : (k+3)*n]
			x3 := a.data[(k+3)*n : (k+4)*n]
			for i := 0; i < n; i++ {
				axpy4(&[4]float64{x0[i], x1[i], x2[i], x3[i]}, x0[i:], x1[i:], x2[i:], x3[i:], acc[i*n+i:(i+1)*n])
			}
		}
		for ; k < hi; k++ {
			x := a.data[k*n : (k+1)*n]
			for i, xi := range x {
				Axpy(xi, x[i:], acc[i*n+i:(i+1)*n])
			}
		}
	})
	if !cholUpper(g) {
		return nil, false
	}
	// Row-wise forward substitution x·R = a_row, as one axpy per column
	// of the row so the inner loop streams over a contiguous row of R.
	r := g.data
	par.For(a.rows, par.GrainFor(n*n/2+1), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			x := a.data[k*n : (k+1)*n]
			i := 0
			for ; i+4 < n; i += 4 {
				var neg [4]float64
				for d := i; d < i+4; d++ {
					rd := r[d*n : (d+1)*n]
					xi := x[d] / rd[d]
					x[d] = xi
					neg[d-i] = -xi
					if xi != 0 { // Axpy's own skip
						for e := d + 1; e < i+4; e++ {
							x[e] += -xi * rd[e]
						}
					}
				}
				axpy4(&neg, r[i*n+i+4:(i+1)*n], r[(i+1)*n+i+4:(i+2)*n], r[(i+2)*n+i+4:(i+3)*n], r[(i+3)*n+i+4:(i+4)*n], x[i+4:])
			}
			for ; i < n; i++ {
				ri := r[i*n : (i+1)*n]
				xi := x[i] / ri[i]
				x[i] = xi
				Axpy(-xi, ri[i+1:], x[i+1:])
			}
		}
	})
	return g, true
}

// cholUpper overwrites g, the upper triangle of a symmetric positive
// definite matrix over a zero lower triangle, with its Cholesky factor R
// (g = RᵀR). It returns false, leaving g in an unspecified state, when a
// pivot is not above cholBreakdown times its original diagonal entry
// (which also catches NaNs).
func cholUpper(g *Dense) bool {
	n := g.rows
	for j := 0; j < n; j++ {
		rj := g.data[j*n : (j+1)*n]
		// Left-looking: the pivot and row j of R from the j rows above.
		diag := rj[j]
		for p := 0; p < j; p++ {
			rp := g.data[p*n : (p+1)*n]
			Axpy(-rp[j], rp[j:], rj[j:])
		}
		if !(rj[j] > cholBreakdown*diag) {
			return false
		}
		d := math.Sqrt(rj[j])
		rj[j] = d
		for c := j + 1; c < n; c++ {
			rj[c] /= d
		}
	}
	return true
}
