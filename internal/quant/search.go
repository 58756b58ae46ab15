package quant

import (
	"sync"

	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/topk"
)

// DefaultBeta is the candidate over-fetch factor when a caller does not
// choose one: the quantized scan keeps topN·β candidates for the exact
// rerank. β = 4 sits on the flat part of the fidelity frontier measured
// in BENCH_10.json — top-10 overlap with the float path is ≥ 0.99 on
// corpusgen corpora while the rerank stays a rounding error next to the
// scan.
const DefaultBeta = 4

// ScanStats reports the work one quantized search performed; the serving
// layer aggregates it into lsi_quant_* metrics.
type ScanStats struct {
	// Scanned counts documents scored through the int8 kernel; Reranked
	// counts stage-2 candidates rescored with exact float64 kernels. When
	// the over-fetched candidate set would cover every document the scan
	// degenerates to a pure exact pass: Scanned is 0 and Reranked is the
	// full document count.
	Scanned  int
	Reranked int
}

// scanBlock is the number of documents scored per batched kernel call.
// The int32 dot buffer (4·scanBlock bytes) stays L1-resident and a block
// of code rows stays within L2 at any realistic rank, while one call's
// overhead amortizes over the whole block.
const scanBlock = 512

// scanScratch pools per-query quantized-search state: the widened
// quantized query, the block dot buffer, the bounded selection heap, and
// the candidate buffer.
type scanScratch struct {
	q8   []int8
	q16  []int16
	dots [scanBlock]int32
	heap topk.Heap
	cand []topk.Match
}

var scanPool = sync.Pool{New: func() any { return new(scanScratch) }}

// scanRange offers the stage-1 score of every document in [lo, hi) to a
// heap keeping the best `keep` — the quantized counterpart of
// segment's float scoreRange, blocked so the hot loop is two cheap passes per
// block: mat.DotInt8Blocked streams the code rows into an L1-resident
// int32 buffer, then a threshold pass turns each dot into sn[j]·dot and
// offers only the survivors. The offered score is the true approximate
// cosine divided by the per-query constant qscale/qn; that constant is
// positive (or the dot is identically 0), so dropping it is a monotone
// transform — the kept candidate set is the same one the full cosine
// would keep, and stage 2 rescores it exactly anyway. A running copy of
// the heap's worst kept match turns the common case — a candidate that
// loses — into one comparison with no call. Integer dots are exact and
// the per-document score is a pure function of the stored codes, so the
// scan is bitwise-deterministic for any chunking.
func (m *Matrix) scanRange(sc *scanScratch, h *topk.Heap, q16 []int16, sn []float64, keep, lo, hi int) {
	dim := m.dim
	codes := m.codes
	var wScore float64
	wDoc, full := 0, false
	for base := lo; base < hi; base += scanBlock {
		nb := hi - base
		if nb > scanBlock {
			nb = scanBlock
		}
		dots := sc.dots[:nb]
		mat.DotInt8Blocked(q16, codes[base*dim:(base+nb)*dim], dots)
		for o, d := range dots {
			j := base + o
			t := sn[j] * float64(d)
			if full && (t < wScore || (t == wScore && j > wDoc)) {
				continue
			}
			h.Offer(topk.Match{Doc: j, Score: t})
			if h.Len() == keep {
				full = true
				w := h.Items()[0]
				wScore, wDoc = w.Score, w.Doc
			}
		}
	}
}

// scanDocs is scanRange over an explicit candidate list (the IVF
// composition path): positions [lo, hi) of docs are scored. The rows are
// gathered, not streamed, so there is nothing to block — each row is
// scored with the single-row kernel.
func (m *Matrix) scanDocs(h *topk.Heap, q16 []int16, sn []float64, docs []int32, keep, lo, hi int) {
	dim := m.dim
	codes := m.codes
	var wScore float64
	wDoc, full := 0, false
	for f := lo; f < hi; f++ {
		j := int(docs[f])
		d := mat.DotInt8Pre(q16, codes[j*dim:(j+1)*dim])
		t := sn[j] * float64(d)
		if full && (t < wScore || (t == wScore && j > wDoc)) {
			continue
		}
		h.Offer(topk.Match{Doc: j, Score: t})
		if h.Len() == keep {
			full = true
			w := h.Items()[0]
			wScore, wDoc = w.Score, w.Doc
		}
	}
}

// selectChunked runs bounded top-keep selection over [0, n), serial or
// chunk-parallel exactly like the float scan: one bounded heap per
// chunk, partials merged in chunk order. Selection under the strict
// (score desc, doc asc) total order is offer-order-insensitive, so the
// kept set is identical for every worker count. Results land in h.
func selectChunked(sc *scanScratch, h *topk.Heap, n, keep, grain int, scan func(sc *scanScratch, h *topk.Heap, lo, hi int)) {
	h.Reset(keep)
	if par.MaxProcs() == 1 || n <= grain {
		scan(sc, h, 0, n)
		return
	}
	partials := par.MapChunks(n, grain, func(lo, hi int) *scanScratch {
		csc := scanPool.Get().(*scanScratch)
		csc.heap.Reset(keep)
		scan(csc, &csc.heap, lo, hi)
		return csc
	})
	for _, csc := range partials {
		h.Merge(&csc.heap)
		scanPool.Put(csc)
	}
}

// search is the shared two-stage core. docs selects the candidate
// universe: nil means every document in the matrix (the full-scan path),
// otherwise it is a list of local document numbers (the IVF composition
// path, scanning only probed cells). Stage 1 keeps the topN·β best
// quantized scores; stage 2 rescores exactly those candidates with the
// float kernels and returns the topN best appended to dst.
func (m *Matrix) search(dst []topk.Match, docs []int32, vecs *mat.Dense, norms []float64, pq []float64, qn float64, topN, beta int) ([]topk.Match, ScanStats) {
	m.checkSearchArgs(vecs, norms, pq)
	n := m.NumDocs()
	if docs != nil {
		n = len(docs)
	}
	if n == 0 {
		return dst, ScanStats{}
	}
	keep := topN
	if keep <= 0 || keep > n {
		keep = n
	}
	if beta < 1 {
		beta = 1
	}
	cand := n
	if c := int64(keep) * int64(beta); c < int64(n) {
		cand = int(c)
	}

	sc := scanPool.Get().(*scanScratch)
	defer scanPool.Put(sc)
	h := &sc.heap

	exact := func(_ *scanScratch, h *topk.Heap, lo, hi int) {
		for f := lo; f < hi; f++ {
			j := f
			if docs != nil {
				j = int(docs[f])
			}
			h.Offer(topk.Match{Doc: j, Score: mat.DotNorm(pq, vecs.Row(j), qn, norms[j])})
		}
	}
	if cand >= n {
		// The over-fetch covers the whole universe: the quantized stage
		// cannot narrow anything, so score everything exactly once.
		selectChunked(sc, h, n, keep, par.GrainFor(2*m.dim+1), exact)
		return h.AppendSorted(dst), ScanStats{Reranked: n}
	}

	// Stage 1: quantize the query once, widen it to int16 for the
	// streaming kernel, scan codes, keep the cand best approximations.
	if cap(sc.q8) < m.dim {
		sc.q8 = make([]int8, m.dim)
		sc.q16 = make([]int16, m.dim)
	}
	q8, q16 := sc.q8[:m.dim], sc.q16[:m.dim]
	quantizeVec(q8, pq)
	for i, c := range q8 {
		q16[i] = int16(c)
	}
	sn := m.scaleOverNorms(norms)
	scan := func(csc *scanScratch, h *topk.Heap, lo, hi int) { m.scanRange(csc, h, q16, sn, cand, lo, hi) }
	if docs != nil {
		scan = func(_ *scanScratch, h *topk.Heap, lo, hi int) { m.scanDocs(h, q16, sn, docs, cand, lo, hi) }
	}
	selectChunked(sc, h, n, cand, par.GrainFor(m.dim/2+1), scan)
	sc.cand = h.AppendSorted(sc.cand[:0])

	// Stage 2: exact float64 rerank of the candidates restores the final
	// (score desc, doc asc) order with true cosines.
	h.Reset(keep)
	for _, c := range sc.cand {
		j := c.Doc
		h.Offer(topk.Match{Doc: j, Score: mat.DotNorm(pq, vecs.Row(j), qn, norms[j])})
	}
	return h.AppendSorted(dst), ScanStats{Scanned: n, Reranked: len(sc.cand)}
}

// AppendSearch appends the topN best matches for the projected query pq
// (with precomputed norm qn) to dst, scored two-stage: quantized scan of
// every document, exact rerank of the topN·beta over-fetched candidates.
// Matches carry LOCAL document numbers and exact float64 cosine scores,
// best-first under (score desc, doc asc). vecs and norms must be the
// float matrix this Matrix was quantized from; beta < 1 is treated as 1.
// Results are deterministic for every worker count.
func (m *Matrix) AppendSearch(dst []topk.Match, vecs *mat.Dense, norms []float64, pq []float64, qn float64, topN, beta int) ([]topk.Match, ScanStats) {
	return m.search(dst, nil, vecs, norms, pq, qn, topN, beta)
}

// AppendSearchDocs is AppendSearch restricted to an explicit candidate
// list of local document numbers — the composition point with the IVF
// tier, which hands over the documents of its probed cells so the in-cell
// scan runs on int8 codes while the rerank stays exact float64.
func (m *Matrix) AppendSearchDocs(dst []topk.Match, docs []int32, vecs *mat.Dense, norms []float64, pq []float64, qn float64, topN, beta int) ([]topk.Match, ScanStats) {
	return m.search(dst, docs, vecs, norms, pq, qn, topN, beta)
}
