package shard

import (
	"fmt"

	"repro/internal/ivf"
	"repro/internal/segment"
)

// The ANN tier. When Config.ANNList > 0 every compacted segment big
// enough to be worth probing carries an IVF coarse quantizer over its
// rank-k document vectors (internal/ivf): trained at build time for the
// initial segments, retrained by the compactor right after each re-SVD —
// the quantizer is derived state of the decomposition, so it rides the
// same publish-then-bump swap and the epoch-keyed query cache needs no
// new invalidation machinery. Live fold-in segments never carry one and
// stay exhaustive; a probe search over a mixed segment set merges both
// paths under the strict (score desc, global doc asc) order.

// defaultANNMinDocs is the segment size below which training a quantizer
// is not worth it: probing saves a fraction of an already-tiny scan while
// paying the cell-ranking pass.
const defaultANNMinDocs = 256

// annMinDocs resolves the configured training threshold.
func (x *Index) annMinDocs() int {
	if x.cfg.ANNMinDocs != 0 {
		return x.cfg.ANNMinDocs
	}
	return defaultANNMinDocs
}

// annSeed derives the deterministic training seed of a segment's
// quantizer from the configured seed, the shard, and the segment's first
// global document — the same scheme the compactor uses for rebuild
// seeds, offset so the two streams never collide. Re-training the same
// documents yields the same centroids, run after run.
func annSeed(base int64, s, firstGlobal int) int64 {
	return base + int64(s)*1000003 + int64(firstGlobal)*8191 + 500009
}

// trainAnn attaches a freshly trained quantizer to seg when the ANN tier
// is configured and the segment qualifies (compacted, at or above the
// size threshold); otherwise it returns seg unchanged. Training is pure
// with respect to the segment: it reads the published document vectors
// and produces a new Segment value, so callers publish the result with
// the same atomic swap they would publish seg.
func (x *Index) trainAnn(seg *segment.Segment, s int) (*segment.Segment, error) {
	if x.cfg.ANNList <= 0 || !seg.Compacted || seg.Len() < x.annMinDocs() {
		return seg, nil
	}
	ann, err := ivf.Train(seg.Ix.DocVectors(), seg.Ix.Norms(), ivf.TrainOptions{
		NList: x.cfg.ANNList,
		Seed:  annSeed(x.cfg.Seed, s, seg.Global[0]),
	})
	if err != nil {
		return nil, fmt.Errorf("shard %d: training quantizer: %w", s, err)
	}
	return seg.WithAnn(ann)
}
