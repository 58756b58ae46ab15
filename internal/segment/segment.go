// Package segment provides the building block of the sharded live index:
// an immutable slice of a corpus with its own rank-k latent representation,
// a numbering rule from segment-local rows to global document numbers,
// and, in a segment Extend makes, the raw term-space documents Compact
// needs to re-derive that representation from scratch (the shard index
// drops them at once: it settles fold-ins with Merge, which reads only
// the rows).
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
//	            of the segment they were folded against.
//	compacted — settled by Merge, which concatenates segments folded
//	            into one basis and keeps every row (the shard
//	            compactor's path), or rebuilt by Compact from the raw
//	            documents with a fresh SVD (lsi.Build). Neither keeps
//	            the raw documents.
//
// Search treats a set of segments — across all lifecycle states and all
// shards, or the single frozen segment of an unsharded index — as one
// corpus, and is the repository's one search path (DESIGN.md "The search
// path"): per segment, fold the query and pick the cheapest configured
// candidate source {every row | probed IVF cells} and scorer {float |
// int8 + float rerank}, both run by the one scan loop of internal/scan —
// tiered segments renumber their candidates by their rule, the others
// are scanned together as one flattened range — and merge everything in
// one bounded heap under the strict (score desc, global doc asc) total
// order, so results are deterministic for any segment layout and any
// worker count. ProbeStats is the record of what one search did,
// Counters its lifetime accumulator, Tiers and MemoryBytes the static
// side: what a segment set carries and what it costs.
package segment

import (
	"cmp"
	"fmt"

	"repro/internal/ivf"
	"repro/internal/lsi"
	"repro/internal/quant"
)

// Raw retains the term-space documents of a segment in the sorted
// sparse form the retrieval layer produces (terms strictly ascending
// per document). Extend grows it and Compact consumes it; Merge, which
// needs only the rows, drops it.
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
	// num numbers the rows: local row j is global document
	// num.first + num.stride·j (Global). The rule ascends, so local and
	// global tie-breaks agree; Search nonetheless breaks ties on the
	// global number, which is what determinism is defined over.
	num numbering
	// Raw retains the term-space documents of a segment Extend made, for
	// Compact (nil otherwise: the shard index publishes fold-ins without).
	Raw *Raw
	// Compacted marks a segment that waits for no compaction: an initial
	// build, or a compactor merge (Merge or Compact). It is what makes a
	// segment eligible for sidecars (WithTiers).
	Compacted bool
	// Ann is the optional IVF coarse quantizer over Ix's document vectors
	// (nil = none; the segment is always servable by exhaustive scan) and
	// Quant the optional int8 shadow of them. WithTiers decides which
	// segments carry them. Both index segment-LOCAL rows; search
	// renumbers them by the rule like the exhaustive path does.
	Ann   *ivf.Index
	Quant *quant.Matrix
}

// numbering is the rule "local row j of n is global first + stride·j".
// The stride is 0 until a second row fixes it, so an empty or
// one-document segment takes it from whatever follows.
type numbering struct{ first, stride, n int }

// then is r followed by rows numbered global, which must continue its
// rule with a stride of at least 1.
func (r numbering) then(global ...int) (numbering, error) {
	for _, g := range global {
		if r.n == 0 {
			r = numbering{first: g, n: 1}
			continue
		}
		stride := cmp.Or(r.stride, g-r.first)
		if stride < 1 || g != r.first+stride*r.n {
			return r, fmt.Errorf("segment: global number %d does not continue %d + %d·j after %d documents", g, r.first, stride, r.n)
		}
		r.stride, r.n = stride, r.n+1
	}
	return r, nil
}

// FromRule wraps a latent index and its raw documents (nil = none) as a
// segment whose local row j is global document first + stride·j
// (DESIGN.md §6), stride ≥ 1 from two rows up.
func FromRule(ix *lsi.Index, first, stride int, raw *Raw, compacted bool) (*Segment, error) {
	num := numbering{first: first, stride: stride, n: ix.NumDocs()}
	if num.n > 1 && stride < 1 {
		return nil, fmt.Errorf("segment: stride %d over %d documents, want >= 1", stride, num.n)
	}
	if raw != nil && (len(raw.Terms) != len(raw.Weights) || len(raw.Terms) != num.n) {
		return nil, fmt.Errorf("segment: raw holds %d/%d documents, segment has %d",
			len(raw.Terms), len(raw.Weights), num.n)
	}
	return &Segment{Ix: ix, num: num, Raw: raw, Compacted: compacted}, nil
}

// New is FromRule of the one rule the list global must follow.
func New(ix *lsi.Index, global []int, raw *Raw, compacted bool) (*Segment, error) {
	if ix.NumDocs() != len(global) {
		return nil, fmt.Errorf("segment: %d documents but %d global IDs", ix.NumDocs(), len(global))
	}
	num, err := numbering{}.then(global...)
	if err != nil {
		return nil, err
	}
	return FromRule(ix, num.first, num.stride, raw, compacted)
}

// Len returns the number of documents in the segment.
func (s *Segment) Len() int { return s.num.n }

// Global is the global document number of local row j.
func (s *Segment) Global(j int) int { return s.num.first + s.num.stride*j }

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
	// first shard-local document, Global(0) div Shards, offset by 500009
	// so the stream never collides with a decomposition's: re-training the
	// same documents yields the same centroids, run after run, and a
	// shard exported as a 1-shard node (seed Seed, the same local
	// numbers) retrains the cells its central shard trained.
	Seed int64
	// Shards is the owner's shard count, the stride of its global
	// numbers (0 is read as 1).
	Shards int
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
			Seed:  cfg.Seed + int64(s.Global(0)/max(cfg.Shards, 1))*8191 + 500009,
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
// forms appended (one rule, as in New); the receiver is untouched. The
// sparse slices are retained by the new segment's Raw — callers must not
// mutate them after the call.
func (s *Segment) Extend(terms [][]int, weights [][]float64, global []int) (*Segment, error) {
	if len(terms) != len(global) {
		return nil, fmt.Errorf("segment: extending with %d documents but %d global IDs", len(terms), len(global))
	}
	num, err := s.num.then(global...)
	if err != nil {
		return nil, err
	}
	ext, err := s.Ix.ExtendedSparse(terms, weights)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	// Full-slice expressions force append to copy: successive segment
	// states must never share growable backing arrays, or an append for
	// state N+1 would be visible through state N's raw slices.
	raw := s.Raw
	if raw == nil {
		raw = &Raw{}
	}
	grownRaw := &Raw{
		Terms:   append(raw.Terms[:len(raw.Terms):len(raw.Terms)], terms...),
		Weights: append(raw.Weights[:len(raw.Weights):len(raw.Weights)], weights...),
	}
	return &Segment{Ix: ext, num: num, Raw: grownRaw, Compacted: false}, nil
}
