// Package scan is the one scan loop under every search route: a bounded
// top-k selection over a candidate range, serial or chunk-parallel
// (Select, AppendTop), and the float cosine scorer the routes share
// (Float). A route is a candidate Source — every row of a document
// matrix, or an explicit list of rows such as the documents of probed
// IVF cells — times a Scanner: Float here, the int8 scan in
// internal/quant, the walk over flattened segments in internal/segment.
//
// Selection runs under topk's strict (score desc, doc asc) total order,
// which is offer-order-insensitive, so the kept set — and with it every
// result — is identical for any chunking and any worker count.
package scan

import (
	"sync"

	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/topk"
)

// Source names the candidates of a scan: rows [0, n) of a matrix, or the
// rows a list holds. It is an explicit value so that an empty list is
// zero candidates, never "no list, hence every row".
type Source struct {
	n    int
	docs []int32
	list bool
}

// Rows is every row in [0, n).
func Rows(n int) Source { return Source{n: n} }

// List is the rows docs names, in that order; candidate f is docs[f].
func List(docs []int32) Source { return Source{n: len(docs), docs: docs, list: true} }

// Len is the number of candidates.
func (s Source) Len() int { return s.n }

// Docs returns the row list and true for a List source, nil and false
// for Rows.
func (s Source) Docs() ([]int32, bool) { return s.docs, s.list }

// Scanner offers candidates [lo, hi) of some candidate range to h.
// Select calls it once per chunk, concurrently on disjoint ranges with
// distinct heaps.
type Scanner interface {
	Scan(h *topk.Heap, lo, hi int)
}

// heapPool holds the selection heaps: one per AppendTop call and, on
// Select's parallel path, one per chunk.
var heapPool = sync.Pool{New: func() any { return new(topk.Heap) }}

// Select offers s's candidates [0, n) to h, which the caller has Reset
// to keep. Up to grain candidates, or with one worker, s scans the whole
// range straight into h and nothing is allocated; beyond that the range
// is split with par's deterministic layout, each chunk is scanned into
// its own pooled heap of keep, and the partial heaps merge into h in
// chunk order.
func Select[S Scanner](h *topk.Heap, n, keep, grain int, s S) {
	if par.MaxProcs() == 1 || n <= grain {
		s.Scan(h, 0, n)
		return
	}
	for _, p := range par.MapChunks(n, grain, func(lo, hi int) *topk.Heap {
		p := heapPool.Get().(*topk.Heap)
		p.Reset(keep)
		s.Scan(p, lo, hi)
		return p
	}) {
		h.Merge(p)
		heapPool.Put(p)
	}
}

// AppendTop is Select into a pooled heap of its own: it appends the keep
// best of s's candidates [0, n) to dst, best first (all n if keep <= 0
// or beyond n).
func AppendTop[S Scanner](dst []topk.Match, n, keep, grain int, s S) []topk.Match {
	if n <= 0 {
		return dst
	}
	if keep <= 0 || keep > n {
		keep = n
	}
	h := heapPool.Get().(*topk.Heap)
	defer heapPool.Put(h)
	h.Reset(keep)
	Select(h, n, keep, grain, s)
	return h.AppendSorted(dst)
}

// Float scores candidates by exact float64 cosine against a projected
// query: mat.DotNorm32 of PQ (with QN its norm) against the stored float32
// rows of Vecs and their precomputed Norms — the only document scoring in
// float, so a document gets bitwise the same score on every route.
type Float struct {
	Vecs  *mat.Dense32
	Norms []float64
	PQ    []float64
	QN    float64
	// Src picks the rows; matches carry the row number as Doc.
	Src Source
	// IDs, when non-nil, renumbers a Rows source: row j is reported as
	// document IDs[j].
	IDs []int
}

// Scan implements Scanner over f.Src.
func (f Float) Scan(h *topk.Heap, lo, hi int) {
	if docs, ok := f.Src.Docs(); ok {
		for _, d := range docs[lo:hi] {
			j := int(d)
			h.Offer(topk.Match{Doc: j, Score: mat.DotNorm32(f.PQ, f.Vecs.Row(j), f.QN, f.Norms[j])})
		}
		return
	}
	for j := lo; j < hi; j++ {
		doc := j
		if f.IDs != nil {
			doc = f.IDs[j]
		}
		h.Offer(topk.Match{Doc: doc, Score: mat.DotNorm32(f.PQ, f.Vecs.Row(j), f.QN, f.Norms[j])})
	}
}

// Grain is the chunk size at which a float scan is worth fanning out.
func (f Float) Grain() int { return par.GrainFor(2*len(f.PQ) + 1) }

// AppendTop appends the keep best of f.Src to dst, best first.
func (f Float) AppendTop(dst []topk.Match, keep int) []topk.Match {
	return AppendTop(dst, f.Src.Len(), keep, f.Grain(), f)
}
