package lsi

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/mat"
	"repro/internal/scan"
	"repro/internal/topk"
)

// Query hot path. Steady-state cost per query is O(nnz(q)·k) to fold in
// a sparse query (O(n·k) for a dense one) plus one pass of the shared
// scan loop (internal/scan): O(m·k) to score — one fused dot per document
// against the norms precomputed at build/load time — and O(m·log topN)
// to select. The projection buffer and the selection heaps are pooled,
// so Search allocates only the returned slice and the Append variants
// allocate nothing once the destination has capacity.

// Match is one retrieval result: a document and its cosine similarity to
// the query in LSI space. It is the shared topk.Match selection type, so
// bounded top-k machinery applies to it directly.
type Match = topk.Match

// scratch is the reusable per-query state: the folded query.
type scratch struct {
	proj []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// projBuf returns the scratch projection buffer resized to k.
func (s *scratch) projBuf(k int) []float64 {
	if cap(s.proj) < k {
		s.proj = make([]float64, k)
	}
	return s.proj[:k]
}

// Project folds a term-space vector into the LSI space: q ↦ Uₖᵀ·q. This is
// how queries — and unseen documents — are mapped into the index (note
// Uₖᵀ·A's columns are exactly the stored document vectors).
func (ix *Index) Project(q []float64) []float64 {
	if len(q) != ix.numTerms {
		panic(fmt.Sprintf("lsi: Project vector length %d, want %d", len(q), ix.numTerms))
	}
	return mat.MulTVec(ix.uk, q)
}

// ProjectSparse folds a query given in sparse form — parallel term/weight
// slices — into the LSI space, touching only the nonzero rows of Uₖ:
// cost O(nnz(q)·k) instead of Project's O(n·k). With terms strictly
// ascending (sorted, no duplicates — the form the retrieval layer
// produces) the result is bitwise identical to Project over the
// densified query; duplicated terms still accumulate linearly but may
// differ from the merged dense query in the final ulps. It panics on
// length mismatch or an out-of-range term.
func (ix *Index) ProjectSparse(terms []int, weights []float64) []float64 {
	out := make([]float64, ix.k)
	mat.MulTVecSparse(ix.uk, terms, weights, out)
	return out
}

// resultLen is the number of matches a search with this topN returns.
func (ix *Index) resultLen(topN int) int {
	m := ix.docs.Rows()
	if topN > 0 && topN < m {
		return topN
	}
	return m
}

// AppendSearchProjected scores every document against the projected
// query pq and appends the topN best (all, if topN <= 0 or beyond the
// corpus) to dst, best-first with ties broken by document ID: with a
// destination of sufficient capacity the steady-state query path
// allocates nothing. Results are identical for every par worker count.
// The caller owns pq.
func (ix *Index) AppendSearchProjected(dst []Match, pq []float64, topN int) []Match {
	if len(pq) != ix.k {
		panic(fmt.Sprintf("lsi: AppendSearchProjected vector length %d, want %d", len(pq), ix.k))
	}
	defer runtime.KeepAlive(ix) // the rows may be views of ix.mapped
	return scan.Float{
		Vecs: ix.docs, Norms: ix.norms, PQ: pq, QN: mat.Norm(pq), Src: scan.Rows(ix.docs.Rows()),
	}.AppendTop(dst, topN)
}

// Search projects the term-space query and returns the topN documents by
// cosine similarity in LSI space (all documents if topN <= 0 or exceeds
// the corpus). Ties are broken by document ID for determinism. The only
// steady-state allocation is the returned slice; use AppendSearch to
// avoid that one too.
func (ix *Index) Search(query []float64, topN int) []Match {
	return ix.AppendSearch(make([]Match, 0, ix.resultLen(topN)), query, topN)
}

// AppendSearch is Search appending into dst (allocation-free once dst
// has capacity). It panics if the query length does not match the
// vocabulary.
func (ix *Index) AppendSearch(dst []Match, query []float64, topN int) []Match {
	if len(query) != ix.numTerms {
		panic(fmt.Sprintf("lsi: Search vector length %d, want %d", len(query), ix.numTerms))
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	pq := sc.projBuf(ix.k)
	mat.MulTVecInto(ix.uk, query, pq)
	return ix.AppendSearchProjected(dst, pq, topN)
}

// SearchSparse is Search for a query in sparse term/weight form: the
// fold-in touches only the nonzero rows of Uₖ, so a short text query
// costs O(nnz(q)·k + m·k + m·log topN) with no dependence on the
// vocabulary size. With terms strictly ascending (sorted, no
// duplicates), scores are bitwise identical to Search over the
// densified query; duplicated terms accumulate linearly and may move
// scores by ulps relative to the merged dense form. It panics on length
// mismatch or an out-of-range term.
func (ix *Index) SearchSparse(terms []int, weights []float64, topN int) []Match {
	return ix.AppendSearchSparse(make([]Match, 0, ix.resultLen(topN)), terms, weights, topN)
}

// AppendSearchSparse is SearchSparse appending into dst (allocation-free
// once dst has capacity).
func (ix *Index) AppendSearchSparse(dst []Match, terms []int, weights []float64, topN int) []Match {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	pq := sc.projBuf(ix.k)
	mat.MulTVecSparse(ix.uk, terms, weights, pq)
	return ix.AppendSearchProjected(dst, pq, topN)
}
