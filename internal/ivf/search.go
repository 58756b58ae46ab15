package ivf

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/mat"
	"repro/internal/scan"
	"repro/internal/topk"
)

// Cell-probe search: rank the cells by the cosine of the query against
// their centroids, then score only the documents of the nprobe best
// cells with the scorer and selection the exhaustive scan uses
// (internal/scan). Per-document scores are therefore bitwise-identical
// to the exhaustive path and selection under the strict (score desc,
// doc asc) total order is offer-order-insensitive, so probing all cells
// returns exactly the exhaustive result.

// ProbeStats reports the work one cell-probe search performed; the
// serving layer aggregates it into the /metrics probe counters.
type ProbeStats struct {
	// Cells is how many cells the search probed.
	Cells int
	// Docs is how many documents the probed cells held — the scored
	// candidate count. Docs / NumDocs() is the scan fraction the probe
	// saved over an exhaustive scan.
	Docs int
}

// probeScratch pools the per-search probe state: the cell-ranking heap,
// the probed cell ids, and AppendSearch's candidate list.
type probeScratch struct {
	cells topk.Heap
	order []int   // probed cell ids, ascending
	docs  []int32 // documents of the probed cells
}

var probePool = sync.Pool{New: func() any { return new(probeScratch) }}

// rankCells fills sc.order with the ids of the nprobe best-matching
// cells that hold documents, ascending: one DotNorm per such centroid,
// bounded selection under the same total order as document scoring (ties
// to the lower cell id). A memberless cell (training keeps the old
// centroid of a cell that lost every document) is never ranked, so the
// probe budget is spent on cells that can answer. nlist is O(√m), so
// this stays negligible next to the candidate scan.
func (x *Index) rankCells(sc *probeScratch, pq []float64, qn float64, nprobe int) {
	sc.cells.Reset(nprobe)
	for c := 0; c < x.nlist; c++ {
		if x.cellStart[c] == x.cellStart[c+1] {
			continue
		}
		sc.cells.Offer(topk.Match{Doc: c, Score: mat.DotNorm(pq, x.centroids.Row(c), qn, x.cnorms[c])})
	}
	sc.order = sc.order[:0]
	for _, m := range sc.cells.Items() {
		sc.order = append(sc.order, m.Doc)
	}
	sort.Ints(sc.order)
}

// AppendProbeDocs appends to dst the LOCAL document rows of the nprobe
// cells whose centroids best match the projected query pq (qn its norm):
// the candidate list a search then scores in float (AppendSearch) or
// hands to the quantized tier, which scans it on int8 codes and reranks
// in float. Rows are appended cell by cell in ascending cell-id order.
// Only cells with documents are probed and counted, so nprobe >= 1 returns
// rows from a non-empty index; nprobe <= 0 or beyond NList() probes every
// such cell, so it returns every document.
func (x *Index) AppendProbeDocs(dst []int32, pq []float64, qn float64, nprobe int) ([]int32, ProbeStats) {
	if len(pq) != x.dim {
		panic(fmt.Sprintf("ivf: query dimension %d, index dimension %d", len(pq), x.dim))
	}
	if nprobe <= 0 || nprobe > x.nlist {
		nprobe = x.nlist
	}
	sc := probePool.Get().(*probeScratch)
	defer probePool.Put(sc)
	x.rankCells(sc, pq, qn, nprobe)
	total := 0
	for _, c := range sc.order {
		dst = append(dst, x.docs[x.cellStart[c]:x.cellStart[c+1]]...)
		total += x.cellStart[c+1] - x.cellStart[c]
	}
	return dst, ProbeStats{Cells: len(sc.order), Docs: total}
}

// AppendSearch scores the documents of the nprobe best-matching cells
// against the projected query pq (with qn its precomputed norm, as the
// exhaustive path computes it) and appends the topN best to dst under
// the (score desc, doc asc) order: AppendProbeDocs, then the shared
// float scorer over that list, on mat.Narrow(vecs). Doc fields are row
// indices into vecs, which must be the matrix the index was trained on,
// with its norms. Probing every cell returns results bitwise-identical to
// the exhaustive scan. topN <= 0 keeps every candidate.
func (x *Index) AppendSearch(dst []topk.Match, vecs *mat.Dense, norms []float64, pq []float64, qn float64, topN, nprobe int) ([]topk.Match, ProbeStats) {
	if vecs.Rows() != len(x.docs) {
		panic(fmt.Sprintf("ivf: index over %d documents, matrix has %d rows", len(x.docs), vecs.Rows()))
	}
	sc := probePool.Get().(*probeScratch)
	defer probePool.Put(sc)
	var stats ProbeStats
	sc.docs, stats = x.AppendProbeDocs(sc.docs[:0], pq, qn, nprobe)
	f := scan.Float{Vecs: mat.Narrow(vecs), Norms: norms, PQ: pq, QN: qn, Src: scan.List(sc.docs)}
	return f.AppendTop(dst, topN), stats
}

// Search is AppendSearch into a fresh slice.
func (x *Index) Search(vecs *mat.Dense, norms []float64, pq []float64, qn float64, topN, nprobe int) ([]topk.Match, ProbeStats) {
	keep := topN
	if keep <= 0 || keep > len(x.docs) {
		keep = len(x.docs)
	}
	return x.AppendSearch(make([]topk.Match, 0, keep), vecs, norms, pq, qn, topN, nprobe)
}
