// Package mat provides the dense linear-algebra substrate used throughout
// the LSI reproduction: a row-major dense matrix type, the usual
// multiply/transpose/norm operations, Householder QR, and power-iteration
// estimates of the spectral norm.
//
// The package is deliberately small and allocation-conscious rather than a
// general BLAS replacement: every routine here exists because some part of
// the paper (SVD, random projection, perturbation analysis) needs it.
package mat

import (
	"fmt"
	"math"

	"repro/internal/par"
)

// Dense is a dense matrix stored in row-major order.
// The zero value is an empty 0x0 matrix.
type Dense struct {
	rows, cols int
	data       []float64
	owner      any      // see Hold
	from32     *Dense32 // what Widen copied this from; see Narrow
}

// NewDense returns a zeroed r x c matrix.
// It panics if r or c is negative.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseData wraps data (row-major, length r*c) in a Dense without copying.
// It panics if len(data) != r*c.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// Hold makes m keep owner reachable: a matrix over memory the garbage
// collector does not manage (a mapped file) holds what releases it.
func (m *Dense) Hold(owner any) { m.owner = owner }

// FromRows builds a matrix from a slice of equal-length rows, copying the data.
// It panics if the rows have unequal lengths.
func FromRows(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: ragged rows: row %d has length %d, want %d", i, len(row), c))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// Dims returns (rows, cols).
func (m *Dense) Dims() (int, int) { return m.rows, m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// RawData returns the underlying row-major backing slice. Mutating it
// mutates the matrix.
func (m *Dense) RawData() []float64 { return m.data }

// Row returns row i as a slice sharing storage with the matrix.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: column %d out of range for %dx%d matrix", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetRow copies v into row i. It panics on length mismatch.
func (m *Dense) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("mat: SetRow length %d, want %d", len(v), m.cols))
	}
	copy(m.Row(i), v)
}

// SetCol copies v into column j. It panics on length mismatch.
func (m *Dense) SetCol(j int, v []float64) {
	if len(v) != m.rows {
		panic(fmt.Sprintf("mat: SetCol length %d, want %d", len(v), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = v[i]
	}
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns a newly allocated transpose of m.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			out.data[j*m.rows+i] = v
		}
	}
	return out
}

// Scale multiplies every element of m by s in place and returns m.
func (m *Dense) Scale(s float64) *Dense {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// AddMat returns a + b as a new matrix. It panics on dimension mismatch.
func AddMat(a, b *Dense) *Dense {
	checkSameDims("AddMat", a, b)
	out := NewDense(a.rows, a.cols)
	for i := range a.data {
		out.data[i] = a.data[i] + b.data[i]
	}
	return out
}

// SubMat returns a - b as a new matrix. It panics on dimension mismatch.
func SubMat(a, b *Dense) *Dense {
	checkSameDims("SubMat", a, b)
	out := NewDense(a.rows, a.cols)
	for i := range a.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out
}

func checkSameDims(op string, a, b *Dense) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("mat: %s dimension mismatch %dx%d vs %dx%d", op, a.rows, a.cols, b.rows, b.cols))
	}
}

// Mul returns the product a*b. It panics if a.Cols() != b.Rows(). Large
// products split the rows of a across par workers and, on AVX-512 CPUs,
// run a packed register tile (mul.go); the result is bitwise mulRows' on
// every CPU and for every par.MaxProcs.
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewDense(a.rows, b.cols)
	mulInto(out, a, b)
	return out
}

// mulRows accumulates rows [lo, hi) of a*b into out, a zeroed a.rows×b.cols
// block. The ikj loop order keeps the inner loop streaming over contiguous
// rows of b and out; every output row runs over one panel of b before the
// next panel, four rows of b at a time through axpy4. Each element of out
// still gets the additions of one Axpy per row of b, in order. It is the
// product on CPUs without AVX-512 and the reference the packed tile is
// tested against.
func mulRows(out []float64, a, b *Dense, lo, hi int) {
	n := b.cols
	kb := max(4, 4096/max(n, 1)&^3) // rows of b a panel: 32 KB, inside L1
	for k0 := 0; k0 < a.cols; k0 += kb {
		k1 := min(k0+kb, a.cols)
		for i := lo; i < hi; i++ {
			orow := out[i*n : (i+1)*n]
			arow := a.data[i*a.cols : (i+1)*a.cols]
			k := k0
			for ; k+4 <= k1; k += 4 {
				axpy4((*[4]float64)(arow[k:k+4]), b.data[k*n:(k+1)*n], b.data[(k+1)*n:(k+2)*n], b.data[(k+2)*n:(k+3)*n], b.data[(k+3)*n:(k+4)*n], orow)
			}
			for ; k < k1; k++ {
				Axpy(arow[k], b.data[k*n:(k+1)*n], orow)
			}
		}
	}
}

// MulT returns aᵀ*b. It panics if a.Rows() != b.Rows().
func MulT(a, b *Dense) *Dense {
	if a.rows != b.rows {
		panic(fmt.Sprintf("mat: MulT dimension mismatch %dx%d ᵀ* %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewDense(a.cols, b.cols)
	mulTRows(out.data, a, b, 0, a.rows, 0, false)
	return out
}

// mulTRows accumulates the contribution of rows [lo, hi) of a and b to
// rows [i0, a.cols) of aᵀ*b into out, an a.cols×b.cols block: one Axpy
// per element of a, or with upper (a == b) one per element on and right
// of the diagonal, for the upper triangle of aᵀa alone.
func mulTRows(out []float64, a, b *Dense, lo, hi, i0 int, upper bool) {
	for k := lo; k < hi; k++ {
		brow := b.data[k*b.cols : (k+1)*b.cols]
		for i := i0; i < a.cols; i++ {
			c0 := 0
			if upper {
				c0 = i
			}
			Axpy(a.data[k*a.cols+i], brow[c0:], out[i*b.cols+c0:(i+1)*b.cols])
		}
	}
}

// MulBT returns a*bᵀ. It panics if a.Cols() != b.Cols(). Large products
// split the rows of a across par workers; each output element is one Dot
// on one goroutine, so the result is bitwise the same for every
// par.MaxProcs.
func MulBT(a, b *Dense) *Dense {
	if a.cols != b.cols {
		panic(fmt.Sprintf("mat: MulBT dimension mismatch %dx%d *ᵀ %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewDense(a.rows, b.rows)
	if a.rows*a.cols*b.rows < parallelThreshold || par.MaxProcs() < 2 {
		mulBTRows(out.data, a, b, 0, a.rows)
		return out
	}
	par.For(a.rows, rowGrain, func(lo, hi int) { mulBTRows(out.data, a, b, lo, hi) })
	return out
}

// mulBTRows writes rows [lo, hi) of a*bᵀ into out, an a.rows×b.rows block:
// one Dot per element.
func mulBTRows(out []float64, a, b *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		for j := 0; j < b.rows; j++ {
			out[i*b.rows+j] = Dot(arow, b.data[j*b.cols:(j+1)*b.cols])
		}
	}
}

// MulVec returns a*x as a new vector. It panics if a.Cols() != len(x).
func MulVec(a *Dense, x []float64) []float64 {
	if a.cols != len(x) {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch %dx%d * vec(%d)", a.rows, a.cols, len(x)))
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		var s float64
		for k, av := range arow {
			s += av * x[k]
		}
		out[i] = s
	}
	return out
}

// MulTVec returns aᵀ*x as a new vector. It panics if a.Rows() != len(x).
func MulTVec(a *Dense, x []float64) []float64 {
	out := make([]float64, a.cols)
	MulTVecInto(a, x, out)
	return out
}

// MulTVecInto computes aᵀ*x into dst (zeroed first), so callers on the
// query hot path can reuse a scratch buffer instead of allocating per
// call. The accumulation order is identical to MulTVec's, so results are
// bitwise equal. It panics if a.Rows() != len(x) or len(dst) != a.Cols().
func MulTVecInto(a *Dense, x, dst []float64) {
	if a.rows != len(x) {
		panic(fmt.Sprintf("mat: MulTVec dimension mismatch %dx%d ᵀ* vec(%d)", a.rows, a.cols, len(x)))
	}
	if len(dst) != a.cols {
		panic(fmt.Sprintf("mat: MulTVecInto dst length %d, want %d", len(dst), a.cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < a.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		arow := a.data[i*a.cols : (i+1)*a.cols]
		for j, av := range arow {
			dst[j] += xi * av
		}
	}
}

// Frob returns the Frobenius norm of m.
func (m *Dense) Frob() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute entry of m (0 for an empty matrix).
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// EqualApprox reports whether a and b have the same shape and agree
// elementwise within tol.
func EqualApprox(a, b *Dense, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// SliceCols returns a copy of columns [j0, j1) of m as a new matrix.
func (m *Dense) SliceCols(j0, j1 int) *Dense {
	if j0 < 0 || j1 > m.cols || j0 > j1 {
		panic(fmt.Sprintf("mat: SliceCols [%d,%d) out of range for %d columns", j0, j1, m.cols))
	}
	out := NewDense(m.rows, j1-j0)
	for i := 0; i < m.rows; i++ {
		copy(out.Row(i), m.data[i*m.cols+j0:i*m.cols+j1])
	}
	return out
}

// IsOrthonormalCols reports whether the columns of m are orthonormal
// within tol, i.e. ‖mᵀm − I‖_max <= tol.
func (m *Dense) IsOrthonormalCols(tol float64) bool {
	g := MulT(m, m)
	for i := 0; i < g.rows; i++ {
		for j := 0; j < g.cols; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if math.Abs(g.At(i, j)-want) > tol {
				return false
			}
		}
	}
	return true
}

// String renders small matrices for debugging; large matrices are summarized.
func (m *Dense) String() string {
	if m.rows*m.cols > 100 {
		return fmt.Sprintf("Dense{%dx%d, frob=%.4g}", m.rows, m.cols, m.Frob())
	}
	s := fmt.Sprintf("Dense{%dx%d:\n", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		s += " ["
		for j := 0; j < m.cols; j++ {
			s += fmt.Sprintf(" %9.4g", m.At(i, j))
		}
		s += " ]\n"
	}
	return s + "}"
}
