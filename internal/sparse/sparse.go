// Package sparse implements the sparse-matrix substrate for term-document
// matrices. A corpus with m documents of ~c terms each over an n-term
// vocabulary is an n×m matrix with only c·m nonzeros; Section 5's
// running-time analysis (direct LSI costs O(mnc), the two-step method
// O(ml(l+c))) only makes sense when matrix-vector products exploit that
// sparsity, which the CSR type here provides.
//
// Matrices are built through a COO accumulator and frozen into immutable
// CSR form. Through Block, CSR satisfies svd.BlockOp, so the randomized
// truncated SVD runs on it directly; so does internal/experiments' Lanczos.
package sparse

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/mat"
)

// COO is a coordinate-format accumulator for building sparse matrices.
// Duplicate entries are summed when the matrix is frozen to CSR.
type COO struct {
	rows, cols int
	ri, ci     []int
	vals       []float64
}

// NewCOO returns an empty accumulator for an r×c matrix.
func NewCOO(r, c int) *COO {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("sparse: negative dimensions %dx%d", r, c))
	}
	return &COO{rows: r, cols: c}
}

// Add records v at (i, j). Zero values are ignored. It panics if the index
// is out of range.
func (a *COO) Add(i, j int, v float64) {
	if i < 0 || i >= a.rows || j < 0 || j >= a.cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range for %dx%d", i, j, a.rows, a.cols))
	}
	if v == 0 {
		return
	}
	a.ri = append(a.ri, i)
	a.ci = append(a.ci, j)
	a.vals = append(a.vals, v)
}

// NNZ returns the number of recorded entries (before duplicate merging).
func (a *COO) NNZ() int { return len(a.vals) }

// ToCSR freezes the accumulator into compressed sparse row form, summing
// duplicates in insertion order and dropping entries that cancel to zero.
func (a *COO) ToCSR() *CSR {
	n := len(a.vals)
	// LSD radix over the entry permutation: a stable counting sort by
	// column, then one by row, leaves it ordered by (row, column) with
	// duplicates in insertion order — O(nnz + rows + cols), no comparisons.
	order := stableByKey(stableByKey(nil, a.ci, a.cols), a.ri, a.rows)
	rowPtr := make([]int, a.rows+1)
	colIdx := make([]int, 0, n)
	vals := make([]float64, 0, n)
	for p := 0; p < n; {
		idx := order[p]
		r, c := a.ri[idx], a.ci[idx]
		sum := a.vals[idx]
		p++
		for p < n && a.ri[order[p]] == r && a.ci[order[p]] == c {
			sum += a.vals[order[p]]
			p++
		}
		if sum != 0 {
			colIdx = append(colIdx, c)
			vals = append(vals, sum)
			rowPtr[r+1]++
		}
	}
	for i := 0; i < a.rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	return &CSR{rows: a.rows, cols: a.cols, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// stableByKey returns the entry indices src (nil means 0..len(key)-1)
// reordered by ascending key[index], ties keeping their order in src:
// one counting-sort pass over keys in [0, buckets).
func stableByKey(src, key []int, buckets int) []int {
	next := make([]int, buckets+1)
	for _, k := range key {
		next[k+1]++
	}
	for b := 0; b < buckets; b++ {
		next[b+1] += next[b]
	}
	out := make([]int, len(key))
	if src == nil {
		for i, k := range key {
			out[next[k]] = i
			next[k]++
		}
		return out
	}
	for _, i := range src {
		k := key[i]
		out[next[k]] = i
		next[k]++
	}
	return out
}

// RowBuilder assembles a CSR matrix directly from entries that arrive
// grouped by column — a term-document matrix, filled one document at a
// time — when the number of entries in each row is known up front: each
// entry goes straight to its row's next free slot, with none of COO's
// triplet arrays and sorts in between. The result is what the same Add
// calls on a COO would freeze to.
type RowBuilder struct {
	m    *CSR
	next []int // next free slot of each row
}

// NewRowBuilder returns a builder for a len(rowNNZ)×cols matrix whose row i
// will receive at most rowNNZ[i] entries.
func NewRowBuilder(rowNNZ []int, cols int) *RowBuilder {
	rows := len(rowNNZ)
	rowPtr := make([]int, rows+1)
	for i, n := range rowNNZ {
		rowPtr[i+1] = rowPtr[i] + n
	}
	nnz := rowPtr[rows]
	return &RowBuilder{
		m:    &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: make([]int, nnz), vals: make([]float64, nnz)},
		next: append([]int(nil), rowPtr[:rows]...),
	}
}

// Add records v at (i, j). Zero values are ignored. Within a row, columns
// must not decrease from one call to the next; it panics if they do, if
// the index is out of range, or if row i is already full.
func (b *RowBuilder) Add(i, j int, v float64) {
	if i < 0 || i >= b.m.rows || j < 0 || j >= b.m.cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range for %dx%d", i, j, b.m.rows, b.m.cols))
	}
	if v == 0 {
		return
	}
	p := b.next[i]
	if p == b.m.rowPtr[i+1] || p > b.m.rowPtr[i] && b.m.colIdx[p-1] > j {
		panic(fmt.Sprintf("sparse: RowBuilder row %d: entry at column %d is past its reserved count or out of column order", i, j))
	}
	b.m.colIdx[p], b.m.vals[p] = j, v
	b.next[i] = p + 1
}

// CSR freezes the builder, which must not be used afterwards: entries
// sharing a position are summed in the order they were added, sums that
// cancel to zero are dropped, and the rows are closed up over slots left
// unused.
func (b *RowBuilder) CSR() *CSR {
	m := b.m
	w := 0
	for i := 0; i < m.rows; i++ {
		p, end := m.rowPtr[i], b.next[i]
		m.rowPtr[i] = w
		for p < end {
			j, sum := m.colIdx[p], m.vals[p]
			for p++; p < end && m.colIdx[p] == j; p++ {
				sum += m.vals[p]
			}
			if sum != 0 {
				m.colIdx[w], m.vals[w] = j, sum
				w++
			}
		}
	}
	m.rowPtr[m.rows] = w
	m.colIdx, m.vals = m.colIdx[:w], m.vals[:w]
	return m
}

// NewCSR returns the (len(rowPtr)-1)×cols matrix whose row i holds the
// entries colIdx[k], vals[k] for k in [rowPtr[i], rowPtr[i+1]), taking
// the slices over. Each row's columns must ascend within [0, cols) and its
// values be nonzero; it panics on slices of inconsistent length.
func NewCSR(cols int, rowPtr, colIdx []int, vals []float64) *CSR {
	if len(rowPtr) == 0 || rowPtr[len(rowPtr)-1] != len(colIdx) || len(colIdx) != len(vals) {
		panic(fmt.Sprintf("sparse: NewCSR with %d row pointers, %d column indices, %d values", len(rowPtr), len(colIdx), len(vals)))
	}
	return &CSR{rows: len(rowPtr) - 1, cols: cols, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// CSR is an immutable sparse matrix in compressed sparse row format.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
}

// Dims returns (rows, cols). Together with MulVec and MulTVec this makes
// CSR satisfy experiments.Op, the Lanczos engine's operator.
func (m *CSR) Dims() (int, int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.vals) }

// At returns the value at (i, j) with a binary search over row i.
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range for %dx%d", i, j, m.rows, m.cols))
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	pos := lo + sort.SearchInts(m.colIdx[lo:hi], j)
	if pos < hi && m.colIdx[pos] == j {
		return m.vals[pos]
	}
	return 0
}

// MulVec returns A·x. It panics if len(x) != Cols().
func (m *CSR) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch %dx%d * vec(%d)", m.rows, m.cols, len(x)))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		var s float64
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			s += m.vals[p] * x[m.colIdx[p]]
		}
		out[i] = s
	}
	return out
}

// MulTVec returns Aᵀ·x. It panics if len(x) != Rows().
func (m *CSR) MulTVec(x []float64) []float64 {
	if len(x) != m.rows {
		panic(fmt.Sprintf("sparse: MulTVec dimension mismatch %dx%d ᵀ* vec(%d)", m.rows, m.cols, len(x)))
	}
	out := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			out[m.colIdx[p]] += xi * m.vals[p]
		}
	}
	return out
}

// MulDense returns A·B for dense B as a new dense matrix.
func (m *CSR) MulDense(b *mat.Dense) *mat.Dense {
	br, bc := b.Dims()
	if m.cols != br {
		panic(fmt.Sprintf("sparse: MulDense dimension mismatch %dx%d * %dx%d", m.rows, m.cols, br, bc))
	}
	out := mat.NewDense(m.rows, bc)
	for i := 0; i < m.rows; i++ {
		orow := out.Row(i)
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			mat.Axpy(m.vals[p], b.Row(m.colIdx[p]), orow)
		}
	}
	return out
}

// TMulDense returns Aᵀ·B for dense B as a new dense matrix.
func (m *CSR) TMulDense(b *mat.Dense) *mat.Dense {
	br, bc := b.Dims()
	if m.rows != br {
		panic(fmt.Sprintf("sparse: TMulDense dimension mismatch %dx%d ᵀ* %dx%d", m.rows, m.cols, br, bc))
	}
	out := mat.NewDense(m.cols, bc)
	for i := 0; i < m.rows; i++ {
		brow := b.Row(i)
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			v := m.vals[p]
			orow := out.Row(m.colIdx[p])
			for j, bv := range brow {
				orow[j] += v * bv
			}
		}
	}
	return out
}

// T returns the transpose as a new CSR matrix.
func (m *CSR) T() *CSR {
	rowPtr := make([]int, m.cols+1)
	for _, c := range m.colIdx {
		rowPtr[c+1]++
	}
	for i := 0; i < m.cols; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	colIdx := make([]int, len(m.colIdx))
	vals := make([]float64, len(m.vals))
	next := append([]int(nil), rowPtr[:m.cols]...)
	for i := 0; i < m.rows; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			c := m.colIdx[p]
			pos := next[c]
			next[c]++
			colIdx[pos] = i
			vals[pos] = m.vals[p]
		}
	}
	return &CSR{rows: m.cols, cols: m.rows, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// ToDense materializes the matrix densely.
func (m *CSR) ToDense() *mat.Dense {
	out := mat.NewDense(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		row := out.Row(i)
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			row[m.colIdx[p]] = m.vals[p]
		}
	}
	return out
}

// Frob returns the Frobenius norm.
func (m *CSR) Frob() float64 {
	var s float64
	for _, v := range m.vals {
		s += v * v
	}
	return math.Sqrt(s)
}

// Col returns column j as a dense vector.
func (m *CSR) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("sparse: column %d out of range for %dx%d", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		pos := lo + sort.SearchInts(m.colIdx[lo:hi], j)
		if pos < hi && m.colIdx[pos] == j {
			out[i] = m.vals[pos]
		}
	}
	return out
}

// RowNNZ returns the number of nonzeros in row i.
func (m *CSR) RowNNZ(i int) int {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("sparse: row %d out of range for %dx%d", i, m.rows, m.cols))
	}
	return m.rowPtr[i+1] - m.rowPtr[i]
}

// Scale returns a copy of the matrix with every entry multiplied by s.
func (m *CSR) Scale(s float64) *CSR {
	vals := make([]float64, len(m.vals))
	for i, v := range m.vals {
		vals[i] = v * s
	}
	return &CSR{
		rows: m.rows, cols: m.cols,
		rowPtr: m.rowPtr, colIdx: m.colIdx, // immutable; safe to share
		vals: vals,
	}
}

// RowIter calls fn for every nonzero (column, value) pair in row i.
func (m *CSR) RowIter(i int, fn func(j int, v float64)) {
	for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
		fn(m.colIdx[p], m.vals[p])
	}
}

// FromDense converts a dense matrix to CSR, dropping exact zeros.
func FromDense(d *mat.Dense) *CSR {
	r, c := d.Dims()
	coo := NewCOO(r, c)
	for i := 0; i < r; i++ {
		row := d.Row(i)
		for j, v := range row {
			if v != 0 {
				coo.Add(i, j, v)
			}
		}
	}
	return coo.ToCSR()
}
