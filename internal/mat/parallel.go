package mat

import (
	"sync/atomic"

	"repro/internal/par"
)

// parallelThreshold is the approximate flop count below which the
// products (Mul, MulInto, MulBT, MulTParallel) run serially — goroutine
// fan-out costs more than it saves on small products.
const parallelThreshold = 1 << 21

// rowGrain is the minimum number of output rows per chunk for the
// row-blocked kernels.
const rowGrain = 8

// panelRows is the fixed row-panel height of the panel reductions
// (MulTParallel, the Gram matrix of QRInPlace). It is a constant, not a
// function of par.MaxProcs, and that is what makes those reductions
// bitwise independent of the worker count.
const panelRows = 512

// panelScratch bounds, in floats, the accumulators panelReduce keeps live
// when that allows more than one per worker (8 MB).
const panelScratch = 1 << 20

// panelReduce adds to out, in panel order, one partial result per fixed
// panel of panelRows rows of [0, rows): body accumulates rows [lo, hi)
// into acc, a zeroed buffer of len(out). The panels and the order their
// partials are summed in depend on rows alone. Panels run a wave at a
// time; a wave is as many panels as fit panelScratch, or par.MaxProcs if
// that is more, so small accumulators (a Gram matrix) take few barriers
// and large ones (Aᵀ·B for a wide a) stay at one per worker.
//
// body may also pack into *pack, a buffer it can grow. The panels of one
// par chunk run in turn on one goroutine and share the pack of the chunk's
// first wave slot, so which buffers exist, and so what a call allocates,
// follows from the chunk layout (rows and par.MaxProcs), not from
// scheduling. The buffers are kept between calls in panelPacks.
func panelReduce(rows int, out []float64, body func(lo, hi int, acc []float64, pack *[]float64)) {
	size := len(out)
	panels := (rows + panelRows - 1) / panelRows
	wave := min(panels, max(par.MaxProcs(), panelScratch/max(size, 1)))
	accs := make([]float64, wave*size)
	packs := panelPacks.Swap(nil)
	if packs == nil {
		packs = new([][]float64)
	}
	if len(*packs) < wave {
		*packs = append(*packs, make([][]float64, wave-len(*packs))...)
	}
	for base := 0; base < panels; base += wave {
		n := min(wave, panels-base)
		par.For(n, 1, func(lo, hi int) {
			pack := &(*packs)[lo]
			for w := lo; w < hi; w++ {
				acc := accs[w*size : (w+1)*size]
				clear(acc)
				r0 := (base + w) * panelRows
				body(r0, min(r0+panelRows, rows), acc, pack)
			}
		})
		for w := 0; w < n; w++ {
			for j, v := range accs[w*size : (w+1)*size] {
				out[j] += v
			}
		}
	}
	kept := 0
	for _, b := range *packs {
		kept += cap(b)
	}
	if kept <= panelScratch {
		panelPacks.Store(packs)
	}
}

// panelPacks keeps panelReduce's pack buffers, indexed by wave slot, while
// they add up to no more than panelScratch floats. A call running beside
// another finds it empty and makes its own, as products do with packSlot.
var panelPacks atomic.Pointer[[][]float64]

// MulTParallel returns aᵀ*b like MulT. The shared row range of a and b is
// cut into fixed panels, each panel accumulates into its own aᵀb-shaped
// buffer, and the buffers are summed in panel order (see panelReduce) —
// bitwise identical for every par.MaxProcs, though the summation grouping
// (and so the last few ulps) differs from the serial MulT. The
// perturbation analysis uses it for its tall-times-block Gram products and
// svd.DenseOp for Aᵀ·Y.
func MulTParallel(a, b *Dense) *Dense {
	work := a.rows * a.cols * b.cols
	if work < parallelThreshold || a.rows != b.rows {
		return MulT(a, b) // mismatches panic with the serial kernel's message
	}
	out := NewDense(a.cols, b.cols)
	panelReduce(a.rows, out.data, func(lo, hi int, acc []float64, pack *[]float64) { mulTPanel(acc, pack, a, b, lo, hi, false) })
	return out
}

// mulTPanel is the body of the aᵀ·b panel reductions (MulTParallel, and
// with upper set cholQR's Gram matrix): mulTRows, bit for bit, with the
// rows of aᵀ through the register tile four at a time where the CPU has
// one and the panel of b is finite. It packs the panel of b into *buf,
// growing it to fit.
func mulTPanel(acc []float64, buf *[]float64, a, b *Dense, lo, hi int, upper bool) {
	i0 := 0
	if hasAVX512 && a.cols >= 4 {
		n := packedSize(hi-lo, b.cols)
		if cap(*buf) < n {
			*buf = make([]float64, n)
		}
		bp := (*buf)[:n]
		if pack(bp, b, lo, hi, 0) {
			i0 = a.cols &^ 3
			tileMul(acc, b.cols, a.data[lo*a.cols:], 1, a.cols, i0, bp, hi-lo, hi-lo, b.cols, upper)
		}
	}
	mulTRows(acc, a, b, lo, hi, i0, upper)
}
