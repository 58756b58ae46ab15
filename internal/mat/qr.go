package mat

import (
	"fmt"
	"math"

	"repro/internal/par"
)

// QR returns the thin QR factorization a = Q*R, Q m×n with orthonormal
// columns and R n×n upper triangular: QRInPlace on a copy of a with tol
// 0, so only a column exactly dependent on earlier ones comes out zero.
// It requires m >= n and panics otherwise. It orthonormalizes the random
// Gaussian matrices behind the projections of Section 5 of the paper.
func QR(a *Dense) (q, r *Dense) {
	if a.rows < a.cols {
		panic(fmt.Sprintf("mat: QR requires rows >= cols, got %dx%d", a.rows, a.cols))
	}
	q = a.Clone()
	r, _ = QRInPlace(q, 0)
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
// Both halves run on the register tile where the CPU has one, giving
// every element the one-Axpy-at-a-time loop's operations in its order
// (TestCholQRBitwiseMatchesReference keeps that loop): the Gram matrix
// through MulTParallel's panel body, the substitution through solveTile.
func cholQR(a *Dense) (*Dense, bool) {
	n := a.cols
	g := gram(a)
	if !cholUpper(g) {
		return nil, false
	}
	r := g.data
	var rp []float64 // R right of solveTile's first panel, packed
	if w0 := firstPanel(n); hasAVX512 && n > tileCols && finite(r) {
		rp = make([]float64, packedSize(n, n-w0))
		pack(rp, g, 0, n, w0)
	}
	par.For(a.rows, par.GrainFor(n*n/2+1), func(lo, hi int) {
		for k := lo; k < hi; {
			if x := a.data[k*n : min(k+8, hi)*n]; rp != nil && k+8 <= hi && plain(x) {
				solveTile(x, r, rp, n)
				k += 8
			} else {
				solveRow(x[:n], r)
				k++
			}
		}
	})
	return g, true
}

// gram returns the upper triangle of aᵀa over a zero lower triangle,
// summed over fixed row panels in panel order (panelReduce).
func gram(a *Dense) *Dense {
	n := a.cols
	g := NewDense(n, n)
	panelReduce(a.rows, g.data, func(lo, hi int, acc []float64, pack *[]float64) { mulTPanel(acc, pack, a, a, lo, hi, true) })
	for i := 1; i < n; i++ {
		clear(g.data[i*n : i*n+i]) // the tile's strips cross the diagonal
	}
	return g
}

// firstPanel is the width of solveTile's first panel: n mod tileCols, or
// tileCols, so the columns right of every panel fill whole strips.
func firstPanel(n int) int { return (n-1)%tileCols + 1 }

// solveRow overwrites x with the solution of y·R = x, R the n×n upper
// triangle in r: a forward substitution, one Axpy per column.
func solveRow(x, r []float64) {
	n := len(x)
	for i := range x {
		ri := r[i*n : (i+1)*n]
		xi := x[i] / ri[i]
		x[i] = xi
		Axpy(-xi, ri[i+1:], x[i+1:])
	}
}

// solveTile is solveRow on the eight rows x holds, by panels of tileCols
// columns (firstPanel): solvePanelAVX512 solves a panel's triangle, then
// the tile adds c += (−x_panel)·R_panel right of it (rp is R packed from
// the first panel's end). Every element gets solveRow's products in its
// order, and the zeros Axpy skips for a zero x_i, which for finite R leave
// an accumulator that is not −0 as it is: the caller checks plain(x).
func solveTile(x, r, rp []float64, n int) {
	var t [8 * tileCols]float64
	w0 := firstPanel(n)
	for p0, p1 := 0, w0; p0 < n; p0, p1 = p1, p1+tileCols {
		solvePanelAVX512(&x[p0], n, &r[p0*n+p0], n, p1-p0, &t[0])
		if p1 < n {
			bp := rp[(p1-w0)*n+p0*tileCols:]
			tileMul(x[p1:], n, t[:], 1, 8, 4, bp, n, p1-p0, n-p1, false)
			tileMul(x[4*n+p1:], n, t[4:], 1, 8, 4, bp, n, p1-p0, n-p1, false)
		}
	}
}

// plain reports whether x holds no −0, Inf or NaN: the values solveTile's
// accumulators may start from.
func plain(x []float64) bool {
	const exp = 0x7ff0_0000_0000_0000
	for _, v := range x {
		if b := math.Float64bits(v); b&exp == exp || b == 1<<63 {
			return false
		}
	}
	return true
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
