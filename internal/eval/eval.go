// Package eval measures ranking fidelity between two retrieval runs:
// how much of a trusted ranking an approximate path reproduced. It is
// the shared vocabulary of the fidelity gates — the quantized scoring
// tier and the IVF ANN tier both trade exactness for speed, and both
// are judged by the same two quantities over a query set:
//
//   - recall@k: of the truth's top k documents, the fraction the
//     approximate ranking also placed in its top k (order-insensitive)
//   - top-k overlap: recall@k averaged over many queries, the number a
//     CI gate compares against its threshold (e.g. ">= 0.99 at k=10")
//
// Rankings are compared by document ID (any comparable type: external
// IDs or global document numbers), so the metrics work across any two
// runs over the same corpus regardless of which index produced them. All functions are pure and deterministic.
package eval

// RecallAtK returns the fraction of the first k truth IDs that appear
// anywhere in the first k got IDs. Lists shorter than k are used in
// full — when the truth has fewer than k entries, the denominator is
// its actual length, so a perfect short ranking still scores 1. An
// empty truth (nothing to recall) scores 1 by convention; k <= 0
// scores 0.
func RecallAtK[ID comparable](got, truth []ID, k int) float64 {
	if k <= 0 {
		return 0
	}
	if len(truth) > k {
		truth = truth[:k]
	}
	if len(got) > k {
		got = got[:k]
	}
	if len(truth) == 0 {
		return 1
	}
	want := make(map[ID]bool, len(truth))
	for _, id := range truth {
		want[id] = true
	}
	hits := 0
	for _, id := range got {
		if want[id] {
			hits++
			delete(want, id) // count duplicate got IDs once
		}
	}
	return float64(hits) / float64(len(truth))
}

// TopKOverlap returns RecallAtK averaged over a query set: got[i] is
// judged against truth[i] for every i. It panics if the slices differ
// in length — the caller produced them from the same query list, so a
// mismatch is a harness bug, not data. An empty query set scores 0 so
// a gate comparing ">= threshold" cannot pass vacuously.
func TopKOverlap[ID comparable](got, truth [][]ID, k int) float64 {
	if len(got) != len(truth) {
		panic("eval: got and truth cover different query sets")
	}
	if len(truth) == 0 {
		return 0
	}
	sum := 0.0
	for i := range truth {
		sum += RecallAtK(got[i], truth[i], k)
	}
	return sum / float64(len(truth))
}
