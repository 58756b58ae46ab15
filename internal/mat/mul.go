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
// once (pack) and shared by the workers.
func mulInto(dst, a, b *Dense) {
	var bp []float64
	if hasAVX512 && a.rows >= 4 {
		buf := takePack(packedSize(b.rows, b.cols))
		defer keepPack(buf)
		if pack(*buf, b, 0, b.rows, 0) {
			bp = *buf
		}
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
		end := hi - (hi-lo)%4
		tileMul(out[lo*b.cols:], b.cols, a.data[lo*a.cols:], a.cols, 1, end-lo, bp, a.cols, a.cols, b.cols, false)
		lo = end
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

// takePack returns the buffer packSlot keeps, or a new one, as size
// floats.
func takePack(size int) *[]float64 {
	buf := packSlot.Swap(nil)
	if buf == nil || cap(*buf) < size {
		b := make([]float64, size)
		buf = &b
	}
	*buf = (*buf)[:size]
	return buf
}

// keepPack puts buf back in packSlot unless it is larger than packKeep.
func keepPack(buf *[]float64) {
	if cap(*buf) <= packKeep {
		packSlot.Store(buf)
	}
}

// packedSize is the length of the packed form of a rows×cols block: its
// columns in strips of tileCols, the last one zero-padded.
func packedSize(rows, cols int) int {
	return (cols + tileCols - 1) / tileCols * tileCols * rows
}

// pack copies the block of b at rows [r0, r1) and columns [c0, b.cols)
// into dst, packedSize(r1-r0, b.cols-c0) long, as zero-padded strips of
// tileCols columns, each strip its rows in turn. It reports false, with
// dst in an unspecified state, if the block holds an Inf or a NaN.
//
// That condition lets the tile drop Axpy's zero-α skip: it adds α·b(k,j)
// anyway, a zero for finite b, which leaves an accumulator that is not −0
// as it is (a sum from +0 never becomes −0). With an Inf or a NaN in b the
// caller takes its loop; accumulators that may start at −0 are its to
// exclude.
func pack(dst []float64, b *Dense, r0, r1, c0 int) bool {
	rows := r1 - r0
	for k := 0; k < rows; k++ {
		src := b.data[(r0+k)*b.cols+c0 : (r0+k+1)*b.cols]
		if !finite(src) {
			return false
		}
		for j0 := 0; j0 < len(src); j0 += tileCols {
			d := dst[j0*rows+k*tileCols : j0*rows+(k+1)*tileCols]
			clear(d[copy(d, src[j0:]):])
		}
	}
	return true
}

// finite reports whether x holds no Inf or NaN.
func finite(x []float64) bool {
	for _, v := range x {
		if v-v != 0 {
			return false
		}
	}
	return true
}

// tileMul accumulates into c (row stride ldc) the rows×n product of x,
// x(r, k) at x[r·ldx + k·inc], and the kk×n matrix packed (pack) in bp
// from a block of ldb ≥ kk rows; rows is a multiple of four. For each
// k-panel of tileK rows every block of four rows runs the 4×16 tile
// (mul_amd64.s) across the strips, a narrower last one through a scratch
// tile. With upper set, strips wholly left of a block's first row are
// skipped, for a caller that clears c below the diagonal. Each element of
// c gets one multiply and one add per row of the packed matrix, in order:
// the one-Axpy-per-α loop's operations, less the zero-α skip (pack).
func tileMul(c []float64, ldc int, x []float64, ldx, inc, rows int, bp []float64, ldb, kk, n int, upper bool) {
	var tile [4 * tileCols]float64
	for k0 := 0; k0 < kk; k0 += tileK {
		kc := min(tileK, kk-k0)
		for i := 0; i < rows; i += 4 {
			xp := &x[i*ldx+k0*inc]
			j0 := 0
			if upper {
				j0 = i &^ (tileCols - 1)
			}
			for ; j0 < n; j0 += tileCols {
				bs, ci := &bp[j0*ldb+k0*tileCols], c[i*ldc+j0:]
				if j0+tileCols <= n {
					mulTileAVX512(xp, ldx, inc, bs, kc, &ci[0], ldc)
					continue
				}
				w := n - j0
				for r := 0; r < 4; r++ {
					copy(tile[r*tileCols:r*tileCols+w], ci[r*ldc:])
				}
				mulTileAVX512(xp, ldx, inc, bs, kc, &tile[0], tileCols)
				for r := 0; r < 4; r++ {
					copy(ci[r*ldc:r*ldc+w], tile[r*tileCols:])
				}
			}
		}
	}
}
