package segment

import (
	"fmt"

	"repro/internal/lsi"
	"repro/internal/sparse"
)

// Compaction turns sealed fold-in segments into one compacted segment,
// in one of two ways. Merge settles segments that share a basis: it
// concatenates their rows under that basis with no decomposition, so
// every document keeps its score; it is what the shard compactor runs.
// Compact re-decomposes: it rebuilds the segments from their retained raw
// term-space documents with a fresh lsi.Build. Which SVD runs is
// lsi.EngineAuto's decision at every size — serving has one
// factorisation path (DESIGN.md §14).

// CompactOptions configures Compact.
type CompactOptions struct {
	// K is the target rank, clamped to the merged matrix's rank bound.
	K int
	// Seed drives the decomposition; compaction of the same documents
	// with the same seed is deterministic (0 = lsi.Build's default).
	Seed int64
}

// Compact merges the raw documents of segs into one freshly decomposed,
// compacted segment, which does not keep them. Every input segment must
// still carry its raw documents (sealed, not yet compacted); the inputs
// are not modified.
func Compact(segs []*Segment, numTerms int, opts CompactOptions) (*Segment, error) {
	if opts.K < 1 {
		return nil, fmt.Errorf("segment: compact rank %d, want >= 1", opts.K)
	}
	global, raw, err := mergeRaw(segs, numTerms)
	if err != nil {
		return nil, err
	}
	ix, err := lsi.Build(raw.Matrix(numTerms), opts.K, lsi.Options{Seed: opts.Seed})
	if err != nil {
		return nil, fmt.Errorf("segment: compact rebuild: %w", err)
	}
	return &Segment{Ix: ix, Global: global, Compacted: true}, nil
}

// Merge concatenates segs, which must share one basis and still carry
// their raw documents, into one compacted segment without a
// decomposition: rows, norms, global numbers and raw documents are
// appended in order, so every document scores bitwise what it scored
// before. The inputs are not modified.
func Merge(segs []*Segment, numTerms int) (*Segment, error) {
	global, raw, err := mergeRaw(segs, numTerms)
	if err != nil {
		return nil, err
	}
	parts := make([]*lsi.Index, len(segs))
	for i, s := range segs {
		parts[i] = s.Ix
	}
	ix, err := lsi.Concat(parts...)
	if err != nil {
		return nil, fmt.Errorf("segment: merge: %w", err)
	}
	return &Segment{Ix: ix, Global: global, Raw: raw, Compacted: true}, nil
}

// mergeRaw appends the global numbers and raw documents of segs in
// order, checking that each segment carries all of its raw documents and
// that every term is in the vocabulary.
func mergeRaw(segs []*Segment, numTerms int) ([]int, *Raw, error) {
	if len(segs) == 0 {
		return nil, nil, fmt.Errorf("segment: compact of zero segments")
	}
	var global []int
	raw := &Raw{}
	for _, s := range segs {
		if s.Raw == nil || s.Raw.Len() != s.Len() {
			return nil, nil, fmt.Errorf("segment: compacting a segment without raw documents (%d raw, %d docs)",
				s.Raw.Len(), s.Len())
		}
		global = append(global, s.Global...)
		raw.Terms = append(raw.Terms, s.Raw.Terms...)
		raw.Weights = append(raw.Weights, s.Raw.Weights...)
	}
	for j, terms := range raw.Terms {
		for _, t := range terms {
			if t < 0 || t >= numTerms {
				return nil, nil, fmt.Errorf("segment: raw document %d term %d out of range [0,%d)", j, t, numTerms)
			}
		}
	}
	return global, raw, nil
}

// Matrix assembles the numTerms×Len() term-document matrix of the
// retained documents, document j as column j. Terms must be in
// [0, numTerms).
func (r *Raw) Matrix(numTerms int) *sparse.CSR {
	rowNNZ := make([]int, numTerms)
	for _, terms := range r.Terms {
		for _, t := range terms {
			rowNNZ[t]++
		}
	}
	b := sparse.NewRowBuilder(rowNNZ, len(r.Terms))
	for j, terms := range r.Terms {
		for i, t := range terms {
			b.Add(t, j, r.Weights[j][i])
		}
	}
	return b.CSR()
}
