// Package vsm implements the conventional vector-space retrieval model —
// the baseline the paper says LSI improves on. Documents are the raw
// columns of the term-document matrix; retrieval ranks documents by cosine
// similarity computed through an inverted index, so query cost is
// proportional to the postings of the query's terms rather than to n·m.
//
// Because it matches terms literally, the model exhibits exactly the
// synonymy failure of the paper's introduction: a query using term t never
// retrieves documents that only use t's synonym. The retrieval experiments
// quantify that gap against LSI.
//
// The query hot path is term-at-a-time over a dense per-document score
// array with a touched-docs list (not a map), bounded top-k selection via
// a min-heap, and pooled scratch — steady-state Search allocates only the
// returned slice, and the Append variants nothing at all.
package vsm

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/sparse"
	"repro/internal/topk"
)

// posting is one (document, weight) pair in a term's postings list.
type posting struct {
	doc int
	w   float64
}

// Index is an inverted-file cosine retrieval index.
type Index struct {
	numTerms int
	numDocs  int
	postings [][]posting
	norms    []float64
}

// Match is one retrieval result: a document and its cosine similarity to
// the query in term space. It is the shared topk.Match selection type.
type Match = topk.Match

// scratch is the reusable per-query accumulator state: a dense score
// array indexed by document, an epoch-marked touched set (so reset is
// O(1), not O(m)), the selection heap, and buffers for normalizing
// unsorted sparse queries. Instances live in a sync.Pool and are sized
// lazily to the largest index they have served.
type scratch struct {
	scores  []float64 // dense per-document dot accumulator
	mark    []int     // mark[d] == epoch ⇔ d is in touched this query
	epoch   int
	touched []int // documents hit by at least one query term, in first-hit order
	heap    topk.Heap
	pairs   []termWeight // sort/merge buffer for unsorted sparse queries
	qterms  []int
	qwts    []float64
}

type termWeight struct {
	t int
	w float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// begin readies the scratch for a query against an m-document index:
// grows the dense arrays if this index is the largest seen and opens a
// fresh epoch. Resetting at the start (not the end) of a query means a
// panicking caller can never leave stale touched state behind for the
// next pool user.
func (s *scratch) begin(m int) {
	if cap(s.scores) < m {
		s.scores = make([]float64, m)
		s.mark = make([]int, m)
	}
	s.scores = s.scores[:m]
	s.mark = s.mark[:m]
	s.epoch++
	s.touched = s.touched[:0]
}

// NewFromMatrix builds the index from a term-document matrix (terms are
// rows, documents are columns), using the matrix entries as weights.
func NewFromMatrix(a *sparse.CSR) *Index {
	n, m := a.Dims()
	ix := &Index{
		numTerms: n,
		numDocs:  m,
		postings: make([][]posting, n),
		norms:    make([]float64, m),
	}
	for t := 0; t < n; t++ {
		a.RowIter(t, func(doc int, w float64) {
			ix.postings[t] = append(ix.postings[t], posting{doc: doc, w: w})
			ix.norms[doc] += w * w
		})
	}
	for d := range ix.norms {
		ix.norms[d] = math.Sqrt(ix.norms[d])
	}
	return ix
}

// NumTerms returns the vocabulary size.
func (ix *Index) NumTerms() int { return ix.numTerms }

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int { return ix.numDocs }

// accumulate folds one query term into the dense score array,
// registering newly touched documents. The first hit assigns, later hits
// add — the same left-to-right accumulation the map-based path performed,
// so scores are bitwise unchanged.
func (ix *Index) accumulate(sc *scratch, t int, qw float64) {
	for _, p := range ix.postings[t] {
		if sc.mark[p.doc] != sc.epoch {
			sc.mark[p.doc] = sc.epoch
			sc.touched = append(sc.touched, p.doc)
			sc.scores[p.doc] = qw * p.w
		} else {
			sc.scores[p.doc] += qw * p.w
		}
	}
}

// finish converts the accumulated dots into cosine matches and appends
// the topN best (all if topN <= 0) to dst, best-first with ties broken
// by document ID. Documents with zero overlap or zero norm are omitted.
func (ix *Index) finish(sc *scratch, dst []Match, qnorm float64, topN int) []Match {
	if qnorm == 0 {
		return dst
	}
	if topN > 0 && topN < len(sc.touched) {
		h := &sc.heap
		h.Reset(topN)
		for _, d := range sc.touched {
			if ix.norms[d] == 0 {
				continue
			}
			h.Offer(Match{Doc: d, Score: sc.scores[d] / (qnorm * ix.norms[d])})
		}
		return h.AppendSorted(dst)
	}
	start := len(dst)
	dst = slices.Grow(dst, len(sc.touched))
	for _, d := range sc.touched {
		if ix.norms[d] == 0 {
			continue
		}
		dst = append(dst, Match{Doc: d, Score: sc.scores[d] / (qnorm * ix.norms[d])})
	}
	topk.SortMatches(dst[start:])
	return dst
}

// Search ranks documents by cosine similarity against a dense term-space
// query vector, returning the topN best (all if topN <= 0). Documents with
// zero overlap are omitted; a zero query returns nil. Ties break by
// document ID. The only steady-state allocation is the returned slice;
// use AppendSearch to avoid that one too.
func (ix *Index) Search(query []float64, topN int) []Match {
	return ix.AppendSearch(nil, query, topN)
}

// AppendSearch is Search appending into dst (allocation-free once dst
// has capacity). A zero or no-overlap query returns dst unchanged.
func (ix *Index) AppendSearch(dst []Match, query []float64, topN int) []Match {
	if len(query) != ix.numTerms {
		panic(fmt.Sprintf("vsm: query length %d, want %d", len(query), ix.numTerms))
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.begin(ix.numDocs)
	var qnorm float64
	for t, qw := range query {
		if qw == 0 {
			continue
		}
		qnorm += qw * qw
		ix.accumulate(sc, t, qw)
	}
	return ix.finish(sc, dst, math.Sqrt(qnorm), topN)
}

// SearchSparse ranks documents against a query given as parallel term/
// weight slices — the natural form for short queries. It is genuinely
// sparse: cost is O(Σ|postings(tᵢ)|) in work and O(1) steady-state
// allocations beyond the returned slice, with no vocabulary-length
// materialization. Results are bitwise identical to Search over the
// densified query: unsorted or duplicated terms are normalized (sorted
// ascending, duplicate weights summed in input order) into pooled
// scratch first. It panics on length mismatch or an out-of-range term.
func (ix *Index) SearchSparse(terms []int, weights []float64, topN int) []Match {
	return ix.AppendSearchSparse(nil, terms, weights, topN)
}

// AppendSearchSparse is SearchSparse appending into dst (allocation-free
// once dst has capacity).
func (ix *Index) AppendSearchSparse(dst []Match, terms []int, weights []float64, topN int) []Match {
	if len(terms) != len(weights) {
		panic(fmt.Sprintf("vsm: %d terms but %d weights", len(terms), len(weights)))
	}
	for _, t := range terms {
		if t < 0 || t >= ix.numTerms {
			panic(fmt.Sprintf("vsm: term %d out of range [0,%d)", t, ix.numTerms))
		}
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	// The dense path visits terms in ascending order with duplicates
	// pre-merged (q[t] += w), so matching its accumulation — and hence
	// its bits — requires the same normal form. Sorted unique input (what
	// the retrieval layer sends) passes through untouched.
	if !sortedUnique(terms) {
		terms, weights = sc.normalize(terms, weights)
	}
	sc.begin(ix.numDocs)
	var qnorm float64
	for i, t := range terms {
		qw := weights[i]
		if qw == 0 {
			continue
		}
		qnorm += qw * qw
		ix.accumulate(sc, t, qw)
	}
	return ix.finish(sc, dst, math.Sqrt(qnorm), topN)
}

// sortedUnique reports whether terms is strictly ascending.
func sortedUnique(terms []int) bool {
	for i := 1; i < len(terms); i++ {
		if terms[i] <= terms[i-1] {
			return false
		}
	}
	return true
}

// normalize rewrites a sparse query into the dense path's normal form —
// terms strictly ascending, duplicate weights summed in input order —
// inside the scratch buffers, leaving the caller's slices untouched.
func (s *scratch) normalize(terms []int, weights []float64) ([]int, []float64) {
	s.pairs = s.pairs[:0]
	for i, t := range terms {
		s.pairs = append(s.pairs, termWeight{t: t, w: weights[i]})
	}
	slices.SortStableFunc(s.pairs, func(a, b termWeight) int { return cmp.Compare(a.t, b.t) })
	s.qterms = s.qterms[:0]
	s.qwts = s.qwts[:0]
	for _, p := range s.pairs {
		if n := len(s.qterms); n > 0 && s.qterms[n-1] == p.t {
			s.qwts[n-1] += p.w
			continue
		}
		s.qterms = append(s.qterms, p.t)
		s.qwts = append(s.qwts, p.w)
	}
	return s.qterms, s.qwts
}
