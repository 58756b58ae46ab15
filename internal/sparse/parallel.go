package sparse

import (
	"fmt"
	"slices"

	"repro/internal/mat"
	"repro/internal/par"
)

// parMinNNZ is the work (nonzeros × columns of the dense operand) below
// which MulDenseInto runs as one chunk: a smaller product is cheaper than
// the fan-out.
const parMinNNZ = 1 << 14

// rowGrain is the minimum number of rows per chunk for row-blocked
// kernels, keeping per-chunk work large enough to amortize dispatch even
// on very sparse rows.
const rowGrain = 64

// MulDenseInto overwrites dst (Rows()×q) with A·b for a Cols()×q b: MulDense
// row-blocked across goroutines, for callers that recycle the output. Each
// row of dst is cleared and accumulated by one goroutine while it is in
// cache, in MulDense's order, so the result is bitwise identical to
// MulDense. It panics on a shape mismatch.
func (m *CSR) MulDenseInto(dst, b *mat.Dense) {
	br, bc := b.Dims()
	if dr, dc := dst.Dims(); m.cols != br || dr != m.rows || dc != bc {
		panic(fmt.Sprintf("sparse: MulDenseInto dimension mismatch %dx%d = %dx%d * %dx%d", dr, dc, m.rows, m.cols, br, bc))
	}
	grain := rowGrain
	if len(m.vals)*bc < parMinNNZ {
		grain = m.rows // one chunk: the product is cheaper than the fan-out
	}
	par.For(m.rows, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			orow := dst.Row(i)
			clear(orow)
			for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
				mat.Axpy(m.vals[p], b.Row(m.colIdx[p]), orow)
			}
		}
	})
}

// BlockOp is a CSR matrix as a block operator (svd.BlockOp shaped: Dims,
// MulDenseInto, TMulDenseInto, Gram) for the randomized SVD engine. Both
// products run on CSR.MulDenseInto — Aᵀ·B over a transpose materialised
// once, when Block is called — so each is a gather with disjoint output
// rows. Every output element is summed in the serial kernels' order, so
// results are bitwise identical to the CSR's own MulDense and TMulDense
// for any par.MaxProcs.
type BlockOp struct {
	a, at *CSR
}

// Block returns the matrix as a block operator, transposing it once;
// the transpose lives as long as the returned value.
func (m *CSR) Block() BlockOp { return BlockOp{a: m, at: m.T()} }

// Dims returns (rows, cols).
func (o BlockOp) Dims() (int, int) { return o.a.Dims() }

// MulDenseInto overwrites dst with A·b.
func (o BlockOp) MulDenseInto(dst, b *mat.Dense) { o.a.MulDenseInto(dst, b) }

// TMulDenseInto overwrites dst with Aᵀ·b, the same kernel over the
// transpose.
func (o BlockOp) TMulDenseInto(dst, b *mat.Dense) { o.at.MulDenseInto(dst, b) }

// Gram returns A·Aᵀ (rows×rows): every document (a row of the transpose,
// streamed in order) adds its outer product. Each worker owns a block of
// rows of G and adds A[i,d]·A[j,d] to G[i,j] for its terms i of document d
// and the document's terms j ≥ i; the lower triangle is then mirrored.
// Every element is summed in document order, so G is exactly symmetric and
// bitwise independent of par.MaxProcs.
func (o BlockOp) Gram() *mat.Dense {
	n, at := o.a.rows, o.at
	g := mat.NewDense(n, n)
	gd := g.RawData()
	par.For(n, rowGrain, func(lo, hi int) {
		for d := 0; d < at.rows; d++ {
			terms, vals := at.colIdx[at.rowPtr[d]:at.rowPtr[d+1]], at.vals[at.rowPtr[d]:at.rowPtr[d+1]]
			p, _ := slices.BinarySearch(terms, lo)
			for ; p < len(terms) && terms[p] < hi; p++ {
				grow := gd[terms[p]*n : (terms[p]+1)*n]
				for q := p; q < len(terms); q++ {
					grow[terms[q]] += vals[p] * vals[q]
				}
			}
		}
	})
	for i := range n {
		for j := range i {
			gd[i*n+j] = gd[j*n+i]
		}
	}
	return g
}
