package segment

import (
	"fmt"

	"repro/internal/lsi"
	"repro/internal/sparse"
)

// Compaction: a fold-in segment represents its documents only within the
// subspace of the basis it was folded against, so representation quality
// drifts as the corpus grows away from the basis-defining documents.
// Compact rebuilds one or more sealed segments from their retained raw
// term-space documents with a fresh decomposition, merging them into a
// single compacted segment: merge the raw documents, assemble the CSR,
// lsi.Build. Which SVD runs is lsi.EngineAuto's decision at every size —
// serving has one factorisation path (DESIGN.md §14).

// CompactOptions configures Compact.
type CompactOptions struct {
	// K is the target rank, clamped to the merged matrix's rank bound.
	K int
	// Seed drives the decomposition; compaction of the same documents
	// with the same seed is deterministic (0 = lsi.Build's default).
	Seed int64
	// KeepRaw retains the merged raw documents on the compacted segment,
	// keeping it eligible for future merges (the shard compactor's
	// size-tiered policy needs this to bound segment counts). Costs one
	// int and one float64 per stored weight.
	KeepRaw bool
}

// Compact merges the raw documents of segs into one freshly decomposed,
// compacted segment. Every input segment must still carry its raw
// documents (sealed, not yet compacted); the inputs are not modified.
func Compact(segs []*Segment, numTerms int, opts CompactOptions) (*Segment, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("segment: compact of zero segments")
	}
	if opts.K < 1 {
		return nil, fmt.Errorf("segment: compact rank %d, want >= 1", opts.K)
	}
	var global []int
	var raw Raw
	for _, s := range segs {
		if s.Raw == nil || s.Raw.Len() != s.Len() {
			return nil, fmt.Errorf("segment: compacting a segment without raw documents (%d raw, %d docs)",
				s.Raw.Len(), s.Len())
		}
		global = append(global, s.Global...)
		raw.Terms = append(raw.Terms, s.Raw.Terms...)
		raw.Weights = append(raw.Weights, s.Raw.Weights...)
	}
	m := len(global)
	coo := sparse.NewCOO(numTerms, m)
	for j, terms := range raw.Terms {
		for i, t := range terms {
			if t < 0 || t >= numTerms {
				return nil, fmt.Errorf("segment: raw document %d term %d out of range [0,%d)", j, t, numTerms)
			}
			coo.Add(t, j, raw.Weights[j][i])
		}
	}
	ix, err := lsi.Build(coo.ToCSR(), opts.K, lsi.Options{Seed: opts.Seed})
	if err != nil {
		return nil, fmt.Errorf("segment: compact rebuild: %w", err)
	}
	kept := (*Raw)(nil)
	if opts.KeepRaw {
		kept = &raw
	}
	return &Segment{Ix: ix, Global: global, Raw: kept, Compacted: true}, nil
}
