// Package segment provides the building block of the sharded live index:
// an immutable slice of a corpus with its own rank-k latent representation,
// a stable mapping from segment-local rows to global document numbers, and
// (until compaction) the raw term-space documents needed to re-derive that
// representation from scratch.
//
// A segment moves through three lifecycle states, all represented by the
// same immutable type:
//
//	mutable   — the newest segment of a shard; absorbing a document
//	            produces a NEW segment via Extend (copy-on-write), so
//	            readers holding the old one are never disturbed.
//	sealed    — frozen by the shard once it is large enough; served
//	            read-only while it waits for the compactor. Sealed
//	            fold-in segments still represent documents in the basis
//	            of the segment they were folded against, and still carry
//	            their raw term-space documents.
//	compacted — settled by Merge, which concatenates segments folded
//	            into one basis and keeps every row (the shard
//	            compactor's path), or rebuilt by Compact from the raw
//	            documents with a fresh SVD (lsi.Build). Merge keeps the
//	            raw documents, which leaves the segment eligible for
//	            future tiered merges; Compact drops them.
//
// Search treats a set of segments — across all lifecycle states and all
// shards, or the single frozen segment of an unsharded index — as one
// corpus, and is the repository's one search path (DESIGN.md "The search
// path"): per segment, fold the query and pick the cheapest configured
// candidate source {every row | probed IVF cells} and scorer {float |
// int8 + float rerank}, both run by the one scan loop of internal/scan —
// tiered segments renumber their candidates through Global, the others
// are scanned together as one flattened range — and merge everything in
// one bounded heap under the strict (score desc, global doc asc) total
// order, so results are deterministic for any segment layout and any
// worker count. ProbeStats is the record of what one search did,
// Counters its lifetime accumulator, Tiers and MemoryBytes the static
// side: what a segment set carries and what it costs.
package segment

import (
	"fmt"

	"repro/internal/ivf"
	"repro/internal/lsi"
	"repro/internal/quant"
)

// Raw retains the term-space documents of a segment in the sorted
// sparse form the retrieval layer produces (terms strictly ascending
// per document). Merge and Compact consume it; Merge keeps it on the
// result (the shard compactor's tiered-merge policy needs it), Compact
// does not.
type Raw struct {
	Terms   [][]int
	Weights [][]float64
}

// Len returns the number of retained documents.
func (r *Raw) Len() int {
	if r == nil {
		return 0
	}
	return len(r.Terms)
}

// NNZ returns the total number of stored term weights.
func (r *Raw) NNZ() int {
	if r == nil {
		return 0
	}
	n := 0
	for _, t := range r.Terms {
		n += len(t)
	}
	return n
}

// Segment is one immutable slice of a sharded corpus. Fields are never
// mutated after construction — every state change (absorbing documents,
// sealing, compacting) produces a new Segment — which is what lets the
// shard layer publish segments to lock-free readers by pointer swap.
type Segment struct {
	// Ix holds the latent representation: basis, singular values, one row
	// per document, precomputed norms. Fold-in segments share their basis
	// with the segment they were folded against.
	Ix *lsi.Index
	// Global maps segment-local row j to the global document number. The
	// shard layer keeps rows in ascending global order so local and
	// global tie-breaks agree; Search nonetheless breaks ties on the
	// global number, which is what determinism is defined over.
	Global []int
	// Raw retains the term-space documents of a fold-in segment, and of
	// a compacted one the compactor may merge again (nil otherwise).
	Raw *Raw
	// Compacted marks a segment that waits for no compaction: an initial
	// build, or a compactor merge (Merge or Compact). It is what makes a
	// segment eligible for sidecars (WithTiers).
	Compacted bool
	// Ann is the optional IVF coarse quantizer over Ix's document vectors
	// (nil = none; the segment is always servable by exhaustive scan) and
	// Quant the optional int8 shadow of them. WithTiers decides which
	// segments carry them. Both index segment-LOCAL rows; search remaps
	// through Global like the exhaustive path does.
	Ann   *ivf.Index
	Quant *quant.Matrix
}

// New wraps a latent index and its global document numbers as a segment.
func New(ix *lsi.Index, global []int, raw *Raw, compacted bool) (*Segment, error) {
	if ix.NumDocs() != len(global) {
		return nil, fmt.Errorf("segment: %d documents but %d global IDs", ix.NumDocs(), len(global))
	}
	if raw != nil && (len(raw.Terms) != len(raw.Weights) || len(raw.Terms) != len(global)) {
		return nil, fmt.Errorf("segment: raw holds %d/%d documents, segment has %d",
			len(raw.Terms), len(raw.Weights), len(global))
	}
	return &Segment{Ix: ix, Global: global, Raw: raw, Compacted: compacted}, nil
}

// Len returns the number of documents in the segment.
func (s *Segment) Len() int { return len(s.Global) }

// WithAnn returns a copy of the segment carrying the given IVF quantizer
// (nil detaches any existing one). The quantizer must cover exactly this
// segment's document vectors: one posting per local row, centroids in
// the segment's rank-k latent space.
func (s *Segment) WithAnn(ann *ivf.Index) (*Segment, error) {
	if ann != nil {
		if ann.NumDocs() != s.Len() {
			return nil, fmt.Errorf("segment: quantizer over %d documents, segment has %d", ann.NumDocs(), s.Len())
		}
		if ann.Dim() != s.Ix.K() {
			return nil, fmt.Errorf("segment: quantizer dimension %d, segment rank %d", ann.Dim(), s.Ix.K())
		}
	}
	next := *s
	next.Ann = ann
	return &next, nil
}

// WithQuant returns a copy of the segment carrying the given int8 shadow
// of its document vectors (nil detaches any existing one). The shadow
// must cover exactly this segment: one code row per local document, at
// the segment's rank.
func (s *Segment) WithQuant(qm *quant.Matrix) (*Segment, error) {
	if qm != nil {
		if qm.NumDocs() != s.Len() {
			return nil, fmt.Errorf("segment: quantized matrix over %d documents, segment has %d", qm.NumDocs(), s.Len())
		}
		if qm.Dim() != s.Ix.K() {
			return nil, fmt.Errorf("segment: quantized dimension %d, segment rank %d", qm.Dim(), s.Ix.K())
		}
	}
	next := *s
	next.Quant = qm
	return &next, nil
}

// TierConfig says which sidecars the compacted segments of an index
// carry. The zero value trains nothing.
type TierConfig struct {
	// NList > 0 trains an IVF quantizer of that many cells (clamped to
	// the segment's document count).
	NList int
	// Seed is the random stream of the segment's owner (the index seed,
	// offset per shard). Each quantizer trains from Seed and its segment's
	// first global document — the scheme compaction seeds use, offset so
	// the two streams never collide — so re-training the same documents
	// yields the same centroids, run after run.
	Seed int64
	// Quantize builds an int8 shadow. It is seedless: a pure function of
	// the document matrix.
	Quantize bool
	// MinDocs is the smallest segment worth training a sidecar for.
	MinDocs int
}

// WithTiers is the one place a segment gets its sidecars: at build, after
// a compaction merge, and at open. A sidecar the caller already
// decoded (ann, qm; nil = none) is attached as it is; a missing one is
// trained when cfg asks for it and the segment is compacted and large
// enough — so a checkpoint saved without sidecars opens into a tiered
// configuration without a rebuild — and otherwise the segment stays
// exact: fold-in segments never carry one, so live documents are always
// scored in float. Training reads only the published document vectors
// and the result is a new Segment, so callers publish it with the same
// atomic swap they would publish s.
func (s *Segment) WithTiers(cfg TierConfig, ann *ivf.Index, qm *quant.Matrix) (*Segment, error) {
	trainable := s.Compacted && s.Len() > 0 && s.Len() >= cfg.MinDocs
	var err error
	if ann == nil && cfg.NList > 0 && trainable {
		ann, err = ivf.Train32(s.Ix.Docs(), s.Ix.Norms(), ivf.TrainOptions{
			NList: cfg.NList,
			Seed:  cfg.Seed + int64(s.Global[0])*8191 + 500009,
		})
		if err != nil {
			return nil, fmt.Errorf("segment: training quantizer: %w", err)
		}
	}
	if ann != nil {
		if s, err = s.WithAnn(ann); err != nil {
			return nil, err
		}
	}
	if qm == nil && cfg.Quantize && trainable {
		qm = quant.Quantize32(s.Ix.Docs())
	}
	if qm != nil {
		if s, err = s.WithQuant(qm); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Extend returns a NEW segment with the given sparse documents folded in
// (represented in this segment's basis) and their global numbers and raw
// forms appended; the receiver is untouched. The sparse slices are
// retained by the new segment's Raw — callers must not mutate them after
// the call.
func (s *Segment) Extend(terms [][]int, weights [][]float64, global []int) (*Segment, error) {
	if len(terms) != len(global) {
		return nil, fmt.Errorf("segment: extending with %d documents but %d global IDs", len(terms), len(global))
	}
	ext, err := s.Ix.ExtendedSparse(terms, weights)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	// Full-slice expressions force append to copy: successive segment
	// states must never share growable backing arrays, or an append for
	// state N+1 would be visible through state N's raw slices.
	grownGlobal := append(s.Global[:len(s.Global):len(s.Global)], global...)
	raw := s.Raw
	if raw == nil {
		raw = &Raw{}
	}
	grownRaw := &Raw{
		Terms:   append(raw.Terms[:len(raw.Terms):len(raw.Terms)], terms...),
		Weights: append(raw.Weights[:len(raw.Weights):len(raw.Weights)], weights...),
	}
	return &Segment{Ix: ext, Global: grownGlobal, Raw: grownRaw, Compacted: false}, nil
}
