package mat

import (
	"fmt"
	"sync/atomic"

	"repro/internal/par"
)

// MulInto overwrites dst with a*b: Mul for callers that recycle the
// output, such as the power loop of the randomized SVD on a Gram matrix.
// The result is bitwise Mul's. dst must not share storage with a or b. It
// panics on a shape mismatch.
func MulInto(dst, a, b *Dense) {
	if a.cols != b.rows || dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("mat: MulInto dimension mismatch %dx%d = %dx%d * %dx%d", dst.rows, dst.cols, a.rows, a.cols, b.rows, b.cols))
	}
	mulInto(dst, a, b)
}

// mulInto overwrites dst with a*b for checked shapes. Above
// parallelThreshold the rows of dst are split across par workers; each
// row is cleared and accumulated by one goroutine, so the result is
// bitwise the same for every par.MaxProcs. On AVX-512 CPUs b is packed
// once (packB) and shared by the workers.
func mulInto(dst, a, b *Dense) {
	var bp []float64
	if hasAVX512 && a.rows >= 4 {
		buf := packSlot.Swap(nil)
		if buf == nil {
			buf = new([]float64)
		}
		defer keepPack(buf)
		bp = packB(buf, b)
	}
	if a.rows*a.cols*b.cols < parallelThreshold || par.MaxProcs() < 2 {
		mulBlock(dst.data, a, b, bp, 0, a.rows) // serial, and no closure to allocate
		return
	}
	par.For(a.rows, rowGrain, func(lo, hi int) { mulBlock(dst.data, a, b, bp, lo, hi) })
}

// mulBlock overwrites rows [lo, hi) of a*b in out: through the register
// tile in blocks of four rows when b is packed (bp non-nil), through
// mulRows otherwise and for the rows left over.
func mulBlock(out []float64, a, b *Dense, bp []float64, lo, hi int) {
	clear(out[lo*b.cols : hi*b.cols])
	if bp != nil {
		lo = mulRowsPacked(out, a, bp, b.cols, lo, hi)
	}
	mulRows(out, a, b, lo, hi)
}

// tileCols is the width of a packed strip of b and of the register tile:
// two ZMM registers of float64.
const tileCols = 16

// tileK is the number of rows of b one tile pass covers: a 32 KB panel of
// a strip, inside L1, while the tile's four rows of a stay there too.
const tileK = 256

// packSlot keeps one packing buffer between products, so a power loop's
// products allocate nothing once it has grown to the shape. A sync.Pool
// would not do: it drops its contents at every collection and allocates
// to refill. Products running at the same time find the slot empty and
// allocate their own.
var packSlot atomic.Pointer[[]float64]

// packKeep bounds, in floats, the buffer packSlot keeps (4 MB; the Gram
// route's G·Y at 1,600 terms packs 1,600 × 80).
const packKeep = 1 << 19

// keepPack puts buf back in packSlot unless it is larger than packKeep.
func keepPack(buf *[]float64) {
	if cap(*buf) <= packKeep {
		packSlot.Store(buf)
	}
}

// packB copies b into *buf (grown if short) as zero-padded strips of
// tileCols columns, each strip its b.rows rows in turn, and returns the
// packed slice. It returns nil if b holds an Inf or a NaN.
//
// That condition is what lets the tile drop axpy4's zero-α skip. mulRows
// skips a zero a(i,k); the tile adds a(i,k)·b(k,j) to the accumulator
// anyway. For finite b that product is a zero, and adding a zero leaves
// the accumulator as it is: it starts at +0 and a sum that starts at +0
// never becomes −0, Inf and NaN stay what they are. For an Inf or NaN in
// b the product would be NaN, so the whole product takes mulRows.
func packB(buf *[]float64, b *Dense) []float64 {
	for _, v := range b.data {
		if v-v != 0 {
			return nil
		}
	}
	size := (b.cols + tileCols - 1) / tileCols * tileCols * b.rows
	if cap(*buf) < size {
		*buf = make([]float64, size)
	}
	bp := (*buf)[:size]
	for j0 := 0; j0 < b.cols; j0 += tileCols {
		w := min(tileCols, b.cols-j0)
		strip := bp[j0*b.rows : (j0+tileCols)*b.rows]
		for k := 0; k < b.rows; k++ {
			d := strip[k*tileCols : (k+1)*tileCols]
			copy(d, b.data[k*b.cols+j0:k*b.cols+j0+w])
			clear(d[w:])
		}
	}
	return bp
}

// mulRowsPacked accumulates into out, a cleared block n columns wide, the
// rows of a*b in [lo, hi) that fill whole blocks of four, and returns the
// first row it left for mulRows. bp is b packed by packB. For each k-panel
// of tileK rows of b, every block of four rows runs the 4×16 tile
// (mul_amd64.s) across the strips; the last strip, if narrower than
// tileCols, goes through a scratch tile. Each element of out thus gets
// one multiply and one add per row of b in ascending order: mulRows'
// operations, with the zero-α skip that packB explains away.
func mulRowsPacked(out []float64, a *Dense, bp []float64, n, lo, hi int) int {
	end := hi - (hi-lo)%4
	kk := a.cols
	var tile [4 * tileCols]float64
	for k0 := 0; k0 < kk; k0 += tileK {
		kc := min(tileK, kk-k0)
		for i := lo; i < end; i += 4 {
			ap := &a.data[i*kk+k0]
			for j0 := 0; j0 < n; j0 += tileCols {
				bs := &bp[j0*kk+k0*tileCols]
				if j0+tileCols <= n {
					mulTileAVX512(ap, kk, bs, kc, &out[i*n+j0], n)
					continue
				}
				for r := 0; r < 4; r++ {
					copy(tile[r*tileCols:], out[(i+r)*n+j0:(i+r+1)*n])
				}
				mulTileAVX512(ap, kk, bs, kc, &tile[0], tileCols)
				for r := 0; r < 4; r++ {
					copy(out[(i+r)*n+j0:(i+r+1)*n], tile[r*tileCols:])
				}
			}
		}
	}
	return end
}
