package mat

import "fmt"

// Dense32 is a row-major float32 matrix, the storage form of document
// vectors: half the bytes of a Dense, each value within a relative 2⁻²⁴.
// Arithmetic on it stays float64; rows widen as read (DotNorm32, Norm).
type Dense32 struct {
	rows, cols int
	data       []float32
	owner      any // see Hold
}

// NewDense32 returns a zeroed r x c matrix.
func NewDense32(r, c int) *Dense32 { return NewDense32Data(r, c, make([]float32, r*c)) }

// NewDense32Data wraps data (row-major, length r*c) without copying. It
// panics if len(data) != r*c.
func NewDense32Data(r, c int, data []float32) *Dense32 {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Dense32{rows: r, cols: c, data: data}
}

// Hold makes m keep owner reachable, as Dense.Hold does.
func (m *Dense32) Hold(owner any) { m.owner = owner }

// Rows returns the number of rows.
func (m *Dense32) Rows() int { return m.rows }

// Dims returns (rows, cols).
func (m *Dense32) Dims() (int, int) { return m.rows, m.cols }

// RawData returns the underlying row-major backing slice.
func (m *Dense32) RawData() []float32 { return m.data }

// Row returns row i as a slice sharing storage with the matrix.
func (m *Dense32) Row(i int) []float32 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Convert copies src into dst, converting each value: exactly to float64,
// rounded to nearest to float32. It panics on length mismatch.
func Convert[D, S float32 | float64](dst []D, src []S) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("mat: Convert length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] = D(v)
	}
}

// Widen returns m as a new float64 matrix: every value exactly, since a
// float64 holds every float32. The copy remembers m, so Narrow of it —
// while it is left unmodified — is m itself, not a second rounding pass.
func (m *Dense32) Widen() *Dense {
	out := NewDense(m.rows, m.cols)
	Convert(out.data, m.data)
	out.from32 = m
	return out
}

// Narrow returns a as a float32 matrix: a's source when a is an unmodified
// Widen copy, otherwise a new matrix of a's values rounded to nearest.
func Narrow(a *Dense) *Dense32 {
	if a.from32 != nil {
		return a.from32
	}
	out := NewDense32(a.rows, a.cols)
	Convert(out.data, a.data)
	return out
}
