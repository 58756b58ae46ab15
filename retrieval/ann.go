package retrieval

import "repro/internal/segment"

// The approximate tiers at the retrieval layer (see WithANN and
// WithQuantized). retrieval/shard owns the sidecars: every compacted
// segment may carry an IVF quantizer and an int8 shadow, and a
// checkpoint writes them beside the segment's file (DESIGN.md
// "Checkpoint layout"). The unsharded index's one segment gets them at
// Build and at Open when the options ask (shard.Frozen, at any size) —
// both are derived state, cheap to rebuild and deterministic, so
// single-stream index files stay format-stable. segment.WithTiers decides
// which segments carry them and segment.Search picks the tier per
// segment; this layer only sets the budgets (probe).

// probe is the one tier routing of a search: nil is the configured
// budget (the ANN probe budget and the quantized rerank over-fetch of
// WithANN and WithQuantized), n > 0 probes n cells per quantizer and
// keeps the configured rerank, and n <= 0 is the fully exact scan.
func (ix *Index) probe(nprobe *int) segment.ProbeOptions {
	switch {
	case nprobe == nil:
		return segment.ProbeOptions{NProbe: ix.annProbe, Beta: ix.quantBeta}
	case *nprobe > 0:
		return segment.ProbeOptions{NProbe: *nprobe, Beta: ix.quantBeta}
	}
	return segment.ProbeOptions{}
}

// ANNStats describes the IVF ANN tier of an index built or opened with
// WithANN (surfaced as the "ann" block of /v1/stats).
type ANNStats struct {
	// NList is the configured cell count; NProbe the default probe
	// budget (0 = the default search scans exhaustively).
	NList  int `json:"nlist"`
	NProbe int `json:"nprobe"`
	// Segments counts quantizers serving (1 for an unsharded index; one
	// per quantized segment for sharded indexes) and Docs the documents
	// they cover — Docs/NumDocs is the corpus fraction served
	// sublinearly.
	Segments int `json:"segments"`
	Docs     int `json:"docs"`
	// Lifetime probe counters: searches that used the tier, cells
	// probed, and candidates scored in them.
	Searches    int64 `json:"searches"`
	CellsProbed int64 `json:"cellsProbed"`
	DocsScored  int64 `json:"docsScored"`
}

// annStats is the "ann" block of Stats over the tiers' coverage t: nil
// when the index has no tier (not configured and no loaded segment
// carries a quantizer).
func (ix *Index) annStats(t segment.Tiers) *ANNStats {
	if ix.annList <= 0 && t.AnnSegs == 0 {
		return nil
	}
	tot := ix.tiers.Totals()
	return &ANNStats{
		NList: ix.annList, NProbe: ix.annProbe,
		Segments: t.AnnSegs, Docs: t.AnnDocs,
		Searches: tot.AnnSearches, CellsProbed: tot.AnnCells, DocsScored: tot.AnnDocs,
	}
}
