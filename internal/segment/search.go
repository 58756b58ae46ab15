package segment

import (
	"runtime"
	"sort"
	"sync"

	"repro/internal/ivf"
	"repro/internal/lsi"
	"repro/internal/mat"
	"repro/internal/quant"
	"repro/internal/scan"
	"repro/internal/topk"
)

// Query is a term-space query in one of its two forms: sparse (Terms
// strictly ascending, with their Weights — what the retrieval layer's
// text pipeline produces) or, when Vec is non-nil, a dense vector over
// the whole vocabulary.
type Query struct {
	Terms   []int
	Weights []float64
	Vec     []float64
}

// foldInto writes Uₖᵀ·q for ix's basis into dst (length ix.K()). The
// sparse form costs O(nnz(q)·k), the dense form O(n·k); with ascending
// terms the two agree bitwise on the same query.
func (q Query) foldInto(ix *lsi.Index, dst []float64) {
	if q.Vec != nil {
		mat.MulTVecInto(ix.Basis(), q.Vec, dst)
		return
	}
	mat.MulTVecSparse(ix.Basis(), q.Terms, q.Weights, dst)
}

// ProbeOptions selects the approximate tiers a search may use. The zero
// value is the escape hatch: with both knobs off every segment is
// scanned exhaustively in float64 — the truth baseline the fidelity
// harness and smoke gates compare against.
type ProbeOptions struct {
	// NProbe is the IVF cell budget for segments carrying a coarse
	// quantizer; <= 0 scans every segment exhaustively instead of probing.
	NProbe int
	// Beta is the quantized over-fetch factor for segments carrying an
	// int8 shadow: the scan keeps topN·Beta candidates for the exact
	// rerank. <= 0 scores in float64 directly, skipping the int8 tier.
	Beta int
}

// searchScratch pools the per-query state: the folded query (one window
// of proj per segment), the probed candidate list, the per-route result
// buffer, the merge heap and the list of segments left to the exact
// scan, so a warm Search allocates only the slice it returns.
type searchScratch struct {
	proj  []float64
	docs  []int32
	buf   []topk.Match
	heap  topk.Heap
	exact []exactSeg
}

// exactSeg is a segment no tier serves for this query: documents
// [off, off+f.Src.Len()) of the flattened range the exact scan walks,
// scored by f under their global numbers.
type exactSeg struct {
	f   scan.Float
	off int
}

var searchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// Search ranks every document held by segs against q and returns the
// topN best (all if topN <= 0) with Doc fields carrying GLOBAL document
// numbers, plus a record of the work done. It is the one search path of
// the repository: sharded and unsharded indexes, text and vector
// queries, default and per-request budgets all arrive here.
//
// Per segment the query is folded into the segment's basis and the
// options pick a candidate source and a scorer, each the cheapest
// configured: the documents of the probed IVF cells (Ann and NProbe) or
// every row; the int8 scan with exact rerank (Quant and Beta) or the
// float scorer directly. A segment with a tier on either axis yields
// its own top candidates in local rows, renumbered by its rule; the
// segments left with every row in float are scanned together as one
// flattened range (searchScratch.Scan). Everything merges in one bounded
// heap under the strict (score desc, global doc asc) order, so results
// are identical for every worker count and every segment layout that
// holds the same documents in the same latent representations. The
// approximate tiers only narrow CANDIDATE SELECTION — every returned
// score is an exact float64 cosine from the one scan.Float scorer — so
// probing every cell with the int8 tier off is bitwise the exhaustive
// scan, and one segment numbered 0, 1, 2, … is bitwise
// segs[0].Ix.SearchSparse.
func Search(segs []*Segment, q Query, topN int, opts ProbeOptions) ([]topk.Match, ProbeStats) {
	defer runtime.KeepAlive(segs) // rows may be views of a mapped file, which lasts as long as its lsi.Index
	total, width := 0, 0
	for _, s := range segs {
		total += s.Len()
		width += s.Ix.K()
	}
	if total == 0 {
		return []topk.Match{}, ProbeStats{}
	}
	keep := topN
	if keep <= 0 || keep > total {
		keep = total
	}

	sc := searchPool.Get().(*searchScratch)
	defer searchPool.Put(sc)
	h := &sc.heap
	h.Reset(keep)
	if cap(sc.proj) < width {
		sc.proj = make([]float64, width)
	}
	sc.exact = sc.exact[:0]

	var st ProbeStats
	at := 0
	for _, s := range segs {
		proj := sc.proj[at : at+s.Ix.K()]
		at += len(proj)
		q.foldInto(s.Ix, proj)
		f := scan.Float{Vecs: s.Ix.Docs(), Norms: s.Ix.Norms(), PQ: proj, QN: mat.Norm(proj), Src: scan.Rows(s.Len())}
		viaAnn := s.Ann != nil && opts.NProbe > 0
		viaQuant := s.Quant != nil && opts.Beta > 0
		if !viaAnn && !viaQuant {
			f.First, f.Stride = s.num.first, s.num.stride
			sc.exact = append(sc.exact, exactSeg{f: f, off: st.ExactDocs})
			st.ExactDocs += s.Len()
			continue
		}
		if viaAnn {
			var ps ivf.ProbeStats
			sc.docs, ps = s.Ann.AppendProbeDocs(sc.docs[:0], proj, f.QN, opts.NProbe)
			f.Src = scan.List(sc.docs)
			st.Probed++
			st.Cells += ps.Cells
			st.Docs += ps.Docs
		}
		if viaQuant {
			var qs quant.ScanStats
			sc.buf, qs = s.Quant.AppendRerank(sc.buf[:0], f, keep, opts.Beta)
			st.QuantSegs++
			st.QuantDocs += qs.Scanned
			st.Reranked += qs.Reranked
		} else {
			sc.buf = f.AppendTop(sc.buf[:0], keep)
		}
		for _, m := range sc.buf {
			// The rule ascends, so the remap is monotone: the strict
			// (score desc, doc asc) order — and with it determinism and the
			// full-probe equivalence — survives the renumbering.
			h.Offer(topk.Match{Doc: s.Global(m.Doc), Score: m.Score})
		}
	}
	if len(sc.exact) > 0 {
		// One fan-out a query over the flattened exact segments, however
		// many it crosses (a fan-out per segment measured +10 % at three
		// segments, +65 % at twelve; EXPERIMENTS.md "One search path").
		grain := sc.exact[0].f.Grain()
		for _, e := range sc.exact[1:] {
			grain = min(grain, e.f.Grain()) // the widest basis sets the chunk size
		}
		scan.Select(h, st.ExactDocs, keep, grain, sc)
		clear(sc.exact) // a pooled scratch must not pin retired segments
	}
	return h.AppendSorted(make([]topk.Match, 0, keep)), st
}

// Scan implements scan.Scanner over the flattened exact segments: it
// offers documents [lo, hi) of that range to h, handing each segment's
// piece to the segment's float scorer as it crosses the boundaries.
func (sc *searchScratch) Scan(h *topk.Heap, lo, hi int) {
	i := sort.Search(len(sc.exact), func(i int) bool { return sc.exact[i].off > lo }) - 1
	for ; lo < hi; i++ {
		e := sc.exact[i]
		end := min(e.off+e.f.Src.Len(), hi)
		e.f.Scan(h, lo-e.off, end-e.off)
		lo = end
	}
}

// SearchSparseOpts is Search for a sparse query (the form the frozen
// benchmark ledger calls).
func SearchSparseOpts(segs []*Segment, terms []int, weights []float64, topN int, opts ProbeOptions) ([]topk.Match, ProbeStats) {
	return Search(segs, Query{Terms: terms, Weights: weights}, topN, opts)
}
