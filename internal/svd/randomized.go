package svd

import (
	"fmt"
	"math/rand"

	"repro/internal/mat"
)

// RandomizedOptions tunes the randomized subspace-iteration SVD.
type RandomizedOptions struct {
	// Oversample is the number of extra subspace dimensions beyond k.
	// Zero means 10.
	Oversample int
	// PowerIters is the number of (AAᵀ) power iterations applied to the
	// sketch. Zero means 6, which drives the error to machine precision on
	// matrices with the spectral gaps the corpus model produces.
	PowerIters int
	// Rng seeds the Gaussian test matrix. Nil means a fixed-seed source.
	Rng *rand.Rand
}

// BlockOp is a linear operator applied to a block of vectors at a time:
// the randomized engine's whole cost is PowerIters+1 products with the
// operator and as many with its transpose, so it asks for them as one pass
// each over the operator rather than column by column, and into a
// destination it recycles rather than a fresh matrix each. Both forms
// overwrite dst; Gram is for the engine's Gram route (see Randomized).
// sparse.BlockOp (a CSR matrix with its transpose) and DenseOp implement
// it; both are bitwise independent of par.MaxProcs.
type BlockOp interface {
	Dims() (rows, cols int)
	MulDenseInto(dst, b *mat.Dense)  // dst = A·B,  b is cols×q, dst rows×q
	TMulDenseInto(dst, b *mat.Dense) // dst = Aᵀ·B, b is rows×q, dst cols×q
	Gram() *mat.Dense                // A·Aᵀ, rows×rows
}

// DenseOp adapts a *mat.Dense to BlockOp.
type DenseOp struct{ M *mat.Dense }

// Dims returns the dimensions of the wrapped matrix.
func (d DenseOp) Dims() (int, int) { return d.M.Dims() }

// MulDenseInto overwrites dst with M·b, row-blocked across par workers
// (bitwise identical to the serial product).
func (d DenseOp) MulDenseInto(dst, b *mat.Dense) { mat.MulInto(dst, d.M, b) }

// TMulDenseInto overwrites dst with Mᵀ·b, reduced over fixed row panels
// (bitwise identical for every par.MaxProcs) into a fresh matrix it
// copies.
func (d DenseOp) TMulDenseInto(dst, b *mat.Dense) {
	p := mat.MulTParallel(d.M, b)
	if dr, dc := dst.Dims(); dr != p.Rows() || dc != p.Cols() {
		panic(fmt.Sprintf("svd: DenseOp destination is %dx%d, product is %dx%d", dr, dc, p.Rows(), p.Cols()))
	}
	copy(dst.RawData(), p.RawData())
}

// Gram returns M·Mᵀ, row-blocked across par workers.
func (d DenseOp) Gram() *mat.Dense { return mat.MulBT(d.M, d.M) }

// orthoTol is the fraction of a sketch column's norm that must survive
// projecting out the earlier columns; below it the orthonormalisation's
// Gram-Schmidt fallback zeroes the column. What remains of an exactly
// dependent column is rounding noise near 1e-15, and normalising that
// noise would put a direction that is not orthogonal to the others into
// the basis of a rank-deficient operator.
const orthoTol = 1e-12

// Randomized computes the top-k singular triplets of op by randomized
// subspace iteration (a block method in the style of Halko–Martinsson–
// Tropp). Unlike single-vector Lanczos it is robust to clustered singular
// values — exactly the regime of Theorem 2, where k equally-sized topics
// give k nearly equal top singular values — so it is the one truncated
// engine every build and compaction runs (the SVDPACK-faithful Lanczos
// lives on in internal/experiments).
//
// The power loop has two routes, picked by cost (gramPays). When the
// vocabulary is short against the documents, it builds G = A·Aᵀ once and
// iterates Y ← G·orth(Y) from Y = G·Ω — SVDPACK's cross-product operator,
// one dense product an iteration. Otherwise it alternates
// Y ← A·orth(Aᵀ·orth(Y)), two sparse gathers an iteration. Either loop
// alternates two recycled buffers, so nothing the size of the sketch is
// allocated inside it, and orthonormalises with one CholeskyQR pass
// (mat.OrthoInPlace): the iteration carries a subspace, which one pass
// preserves. The tail never touches G, whose squared condition number
// would cost the small singular values their accuracy: Y and Bᵀ = Aᵀ·Y
// get the two-pass mat.QRInPlace, so U and V are orthonormal to machine
// precision. The output is bitwise independent of par.MaxProcs.
func Randomized(op BlockOp, k int, opts RandomizedOptions) (*Result, error) {
	return randomized(op, k, opts, gramPays)
}

// gramPays is the route rule, a cost comparison: an iteration on G
// (2·rows²·q flops) and one off it (two sparse gathers and a cols×q
// CholeskyQR) break even near rows² = 3·cols·q (measured; DESIGN.md §14).
// G is then at most 3× the sketch, and compactions, a few thousand
// documents over the full vocabulary, stay on the sparse route.
func gramPays(rows, cols, q int) bool { return rows*rows <= 3*cols*q }

// randomized is Randomized with the route rule passed in; it is how a test
// or benchmark forces either route at any shape.
func randomized(op BlockOp, k int, opts RandomizedOptions, gram func(rows, cols, q int) bool) (*Result, error) {
	rows, cols := op.Dims()
	if rows == 0 || cols == 0 {
		return &Result{U: mat.NewDense(rows, 0), S: nil, V: mat.NewDense(cols, 0)}, nil
	}
	if k <= 0 {
		return nil, fmt.Errorf("svd: Randomized: k must be positive, got %d", k)
	}
	maxRank := min(rows, cols)
	if k > maxRank {
		k = maxRank
	}
	over := opts.Oversample
	if over <= 0 {
		over = 10
	}
	power := opts.PowerIters
	if power <= 0 {
		power = 6
	}
	q := min(k+over, maxRank)
	rng := opts.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(1729))
	}

	var y, z *mat.Dense
	if gram(rows, cols, q) {
		// Y = G·Ω with a rows×q Gaussian Ω, then Y ← G·orth(Y), alternating
		// with Ω's buffer. G is garbage once the loop ends.
		g := op.Gram()
		y, z = mat.NewDense(rows, q), gaussian(rows, q, rng)
		mat.MulInto(y, g, z)
		for it := 0; it < power; it++ {
			mat.OrthoInPlace(y, orthoTol)
			mat.MulInto(z, g, y)
			y, z = z, y
		}
		z = mat.NewDense(cols, q)
	} else {
		// Y = A·Ω with Gaussian Ω (drawn into Z's buffer), then alternate
		// Y ← A·orth(Aᵀ·orth(Y)).
		y, z = mat.NewDense(rows, q), gaussian(cols, q, rng)
		op.MulDenseInto(y, z)
		for it := 0; it < power; it++ {
			mat.OrthoInPlace(y, orthoTol)
			op.TMulDenseInto(z, y)
			mat.OrthoInPlace(z, orthoTol)
			op.MulDenseInto(y, z)
		}
	}
	mat.QRInPlace(y, orthoTol)

	// B = Yᵀ·A computed as Bᵀ = Aᵀ·Y (cols×q, over Z), factored thin
	// Bᵀ = Q·R in place so the dense SVD runs on the q×q R only:
	// R = U_R·Σ·Wᵀ  ⇒  A ≈ Y·B = (Y·W)·Σ·(Q·U_R)ᵀ.
	qt := z
	op.TMulDenseInto(qt, y)
	r, _ := mat.QRInPlace(qt, orthoTol)
	small, err := Decompose(r)
	if err != nil {
		return nil, fmt.Errorf("svd: Randomized inner decomposition: %w", err)
	}
	kk := min(k, len(small.S))
	u := mat.Mul(y, small.V.SliceCols(0, kk))
	v := mat.Mul(qt, small.U.SliceCols(0, kk))
	s := append([]float64(nil), small.S[:kk]...)
	return &Result{U: u, S: s, V: v}, nil
}

// gaussian returns a rows×q standard normal matrix, drawn column by
// column (the order the engine has always consumed its Rng in, so a seed
// keeps its meaning).
func gaussian(rows, q int, rng *rand.Rand) *mat.Dense {
	om := mat.NewDense(rows, q)
	d := om.RawData()
	for j := 0; j < q; j++ {
		for i := 0; i < rows; i++ {
			d[i*q+j] = rng.NormFloat64()
		}
	}
	return om
}
