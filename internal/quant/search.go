package quant

import (
	"runtime"
	"sync"

	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/scan"
	"repro/internal/topk"
)

// DefaultBeta is the candidate over-fetch factor when a caller does not
// choose one: the quantized scan keeps topN·β candidates for the exact
// rerank. β = 4 sits on the flat part of the fidelity frontier
// (EXPERIMENTS.md, "Quantized scan frontier (PR 10)") — top-10 overlap
// with the float path is ≥ 0.99 on corpusgen corpora while the rerank
// stays a rounding error next to the scan.
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
// quantized query, the stage-1 candidates and their rows as the rerank's
// candidate list.
type scanScratch struct {
	q8   []int8
	q16  []int16
	cand []topk.Match
	rows []int32
}

var scanPool = sync.Pool{New: func() any { return new(scanScratch) }}

// int8Scan is the stage-1 scanner: the int8 approximate score of every
// candidate of src, keeping the best `keep` per heap.
type int8Scan struct {
	m    *Matrix
	q16  []int16
	sn   []float64
	src  scan.Source
	keep int
}

// Scan implements scan.Scanner.
func (s int8Scan) Scan(h *topk.Heap, lo, hi int) {
	if docs, ok := s.src.Docs(); ok {
		s.m.scanDocs(h, s.q16, s.sn, docs[lo:hi], s.keep)
	} else {
		s.m.scanRange(h, s.q16, s.sn, s.keep, lo, hi)
	}
}

// scanRange offers the stage-1 score of every document in [lo, hi) to a
// heap keeping the best `keep`, blocked so the hot loop is two cheap
// passes per block: mat.DotInt8Blocked streams the code rows into an
// L1-resident int32 buffer, then a threshold pass turns each dot into
// sn[j]·dot and offers only the survivors. The offered score is the true
// approximate cosine divided by the per-query constant qscale/qn; that
// constant is positive (or the dot is identically 0), so dropping it is
// a monotone transform — the kept candidate set is the same one the full
// cosine would keep, and stage 2 rescores it exactly anyway. A running
// copy of the heap's worst kept match turns the common case — a
// candidate that loses — into one comparison with no call. Integer dots
// are exact and the per-document score is a pure function of the stored
// codes, so the scan is bitwise-deterministic for any chunking.
func (m *Matrix) scanRange(h *topk.Heap, q16 []int16, sn []float64, keep, lo, hi int) {
	dim := m.dim
	codes := m.codes
	var buf [scanBlock]int32
	var wScore float64
	wDoc, full := 0, false
	for base := lo; base < hi; base += scanBlock {
		nb := hi - base
		if nb > scanBlock {
			nb = scanBlock
		}
		dots := buf[:nb]
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
// composition path). The rows are gathered, not streamed, so there is
// nothing to block — each row is scored with the single-row kernel.
func (m *Matrix) scanDocs(h *topk.Heap, q16 []int16, sn []float64, docs []int32, keep int) {
	dim := m.dim
	codes := m.codes
	var wScore float64
	wDoc, full := 0, false
	for _, doc := range docs {
		j := int(doc)
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

// AppendRerank is the two-stage search over the candidates f.Src names:
// stage 1 keeps the topN·β best int8 scores, stage 2 rescores exactly
// those candidates with f — the float scorer over the matrix this Matrix
// was quantized from — and appends the topN best to dst. Matches carry
// LOCAL document numbers and exact float64 cosine scores, best-first
// under (score desc, doc asc); beta < 1 is treated as 1. Results are
// deterministic for every worker count.
func (m *Matrix) AppendRerank(dst []topk.Match, f scan.Float, topN, beta int) ([]topk.Match, ScanStats) {
	defer runtime.KeepAlive(m) // codes and sn may be views of m.mapped
	m.checkSearchArgs(f.Vecs, f.Norms, f.PQ)
	n := f.Src.Len()
	keep := topN
	if keep <= 0 || keep > n {
		keep = n
	}
	if beta < 1 {
		beta = 1
	}
	if int64(keep)*int64(beta) >= int64(n) {
		// The over-fetch covers every candidate: the quantized stage
		// cannot narrow anything, so score them all exactly once.
		return f.AppendTop(dst, keep), ScanStats{Reranked: n}
	}
	cand := keep * beta

	// Stage 1: quantize the query once, widen it to int16 for the
	// streaming kernel, scan codes, keep the cand best approximations.
	sc := scanPool.Get().(*scanScratch)
	defer scanPool.Put(sc)
	if cap(sc.q8) < m.dim {
		sc.q8 = make([]int8, m.dim)
		sc.q16 = make([]int16, m.dim)
	}
	q8, q16 := sc.q8[:m.dim], sc.q16[:m.dim]
	quantizeVec(q8, f.PQ)
	for i, c := range q8 {
		q16[i] = int16(c)
	}
	sc.cand = scan.AppendTop(sc.cand[:0], n, cand, par.GrainFor(m.dim/2+1),
		int8Scan{m: m, q16: q16, sn: m.sn, src: f.Src, keep: cand})

	// Stage 2: exact float64 rerank of the candidates restores the final
	// (score desc, doc asc) order with true cosines.
	sc.rows = sc.rows[:0]
	for _, c := range sc.cand {
		sc.rows = append(sc.rows, int32(c.Doc))
	}
	f.Src = scan.List(sc.rows)
	return f.AppendTop(dst, keep), ScanStats{Scanned: n, Reranked: cand}
}

// AppendSearch is AppendRerank over every document: mat.Narrow(vecs) and
// norms must be the float matrix this Matrix was quantized from, pq the
// projected query and qn its norm.
func (m *Matrix) AppendSearch(dst []topk.Match, vecs *mat.Dense, norms []float64, pq []float64, qn float64, topN, beta int) ([]topk.Match, ScanStats) {
	return m.AppendRerank(dst, scan.Float{Vecs: mat.Narrow(vecs), Norms: norms, PQ: pq, QN: qn, Src: scan.Rows(m.NumDocs())}, topN, beta)
}
