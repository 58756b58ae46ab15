package retrieval

import "repro/internal/segment"

// The quantized scoring tier at the retrieval layer (see WithQuantized;
// ann.go says where the int8 shadows come from). Searches run two-stage:
// the int8 scan selects topN·beta candidates, an exact float64 rerank
// restores the final (score desc, doc asc) order — every returned score
// is a true float64 cosine, only membership deep in the list can differ
// from the exact scan.

// QuantStats describes the quantized scoring tier of an index built or
// opened with WithQuantized (surfaced as the "quant" block of
// /v1/stats).
type QuantStats struct {
	// Beta is the configured rerank over-fetch factor of the default
	// search (stage 1 selects topN·Beta candidates for exact rescoring).
	Beta int `json:"beta"`
	// Segments counts int8 shadows serving (1 for an unsharded index;
	// one per quantized segment for sharded indexes) and Docs the
	// documents they cover — Docs/NumDocs is the corpus fraction scored
	// through the bandwidth-optimal kernels.
	Segments int `json:"segments"`
	Docs     int `json:"docs"`
	// Bytes is the shadows' heap footprint — codes plus per-document
	// scales, roughly NumDocs·(rank + 8) versus the float matrix's
	// NumDocs·rank·8.
	Bytes int64 `json:"bytes"`
	// Lifetime counters: searches that used the tier, documents scored
	// through the int8 kernels in them, and over-fetched candidates
	// rescored exactly.
	Searches     int64 `json:"searches"`
	DocsScanned  int64 `json:"docsScanned"`
	DocsReranked int64 `json:"docsReranked"`
}

// quantStats is the "quant" block of Stats over the tiers' coverage t:
// nil when the index has no tier (not configured and no loaded segment
// carries a shadow).
func (ix *Index) quantStats(t segment.Tiers) *QuantStats {
	if ix.quantBeta <= 0 && t.QuantSegs == 0 {
		return nil
	}
	tot := ix.tiers.Totals()
	return &QuantStats{
		Beta:     ix.quantBeta,
		Segments: t.QuantSegs, Docs: t.QuantDocs, Bytes: t.QuantBytes,
		Searches: tot.QuantSearches, DocsScanned: tot.QuantDocs, DocsReranked: tot.QuantReranks,
	}
}
