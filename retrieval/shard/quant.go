package shard

import (
	"repro/internal/quant"
	"repro/internal/segment"
)

// The quantized scoring tier. When Config.Quantize is set every
// compacted segment big enough to be worth it carries an int8 shadow of
// its rank-k document matrix (internal/quant): built at build time for
// the initial segments, rebuilt by the compactor right after each re-SVD.
// Like the ANN quantizer it is derived state of the decomposition — it
// rides the same publish-then-bump swap, so the epoch-keyed query cache
// needs no new invalidation machinery — and live fold-in segments never
// carry one, so freshly ingested documents are scored in float by
// construction. Unlike the ANN quantizer, quantization is seedless: the
// shadow is a pure function of the document matrix.

// defaultQuantMinDocs is the segment size below which an int8 shadow is
// not worth building: the scan it accelerates is already tiny, and the
// over-fetched rerank would cover most of the segment anyway.
const defaultQuantMinDocs = 256

// quantMinDocs resolves the configured build threshold.
func (x *Index) quantMinDocs() int {
	if x.cfg.QuantMinDocs != 0 {
		return x.cfg.QuantMinDocs
	}
	return defaultQuantMinDocs
}

// trainQuant attaches a freshly built int8 shadow to seg when the
// quantized tier is configured and the segment qualifies (compacted, at
// or above the size threshold); otherwise it returns seg unchanged. Like
// trainAnn it is pure with respect to the segment, so callers publish
// the result with the same atomic swap they would publish seg.
func (x *Index) trainQuant(seg *segment.Segment) (*segment.Segment, error) {
	if !x.cfg.Quantize || !seg.Compacted || seg.Len() < x.quantMinDocs() {
		return seg, nil
	}
	return seg.WithQuant(quant.Quantize(seg.Ix.DocVectors()))
}
