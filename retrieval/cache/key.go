package cache

import (
	"encoding/binary"
	"math"
)

// AppendQueryKey appends the cache key of a sparse query at an index
// epoch to dst and returns the extended slice:
//
//	key := uvarint(epoch) | uvarint(topN) | uvarint(len(terms)) |
//	       uvarint deltas of the terms | float64 bits of the weights
//
// The retrieval layer keys by the sparse query querySparse produces —
// terms ascending, so deltas are small and any two texts that stem and
// weight to the same term vector share one entry. The encoding is
// injective for any input: uvarints delimit themselves, the length prefix
// says where the deltas end, and deltas taken mod 2⁶⁴ give the terms back,
// so two queries share a key exactly when their epochs, topNs, terms and
// weight bits are equal. topN <= 0 ("all documents") encodes as 0. Raw
// weight bits give NaN payloads and signed zeros distinct keys, which can
// only cost a duplicate entry, never a wrong hit.
//
// The epoch stays in the key although Do also takes it as the generation:
// without it, a lookup at epoch e+1 would join an identical query's
// flight that started at epoch e and share that older answer.
func AppendQueryKey(dst []byte, epoch uint64, topN int, terms []int, weights []float64) []byte {
	dst = binary.AppendUvarint(dst, epoch)
	dst = binary.AppendUvarint(dst, uint64(max(topN, 0)))
	dst = binary.AppendUvarint(dst, uint64(len(terms)))
	prev := 0
	for _, t := range terms {
		dst = binary.AppendUvarint(dst, uint64(t-prev))
		prev = t
	}
	for _, w := range weights {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(w))
	}
	return dst
}
