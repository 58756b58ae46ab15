package cache

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Query-key encoding. The retrieval layer caches by the *normalized
// sparse query* — the projected form both backends consume — not by the
// raw text, so "car engine" and "engine car" (or any two texts that
// stem and weight to the same term vector) share one entry. A key is
// the canonical byte encoding of (epoch, topN, terms, weights):
//
//	key := version(1B) | uvarint(epoch) | uvarint(topN) |
//	       uvarint(len) | uvarint-delta(terms...) | float64-bits(weights...)
//
// Terms are delta-encoded in strictly ascending order, so every
// canonical query has exactly one encoding and two different canonical
// queries never collide (the encoding is injective given the length
// prefix). The epoch lives inside the key: bumping it makes every old
// key unreachable at once, and the same epoch, passed to Do as the
// generation, frees them at the next lookup.
//
// topN <= 0 ("all documents") normalizes to 0. Weights are raw IEEE-754
// bits — NaN payloads and signed zeros produce distinct keys, which is
// harmless (distinct keys can only cost a duplicate entry, never a
// wrong hit).

// keyVersion tags the encoding so a future layout change cannot be
// confused with the current one in persisted traces or tests.
const keyVersion = 1

// uvarintLen returns the number of bytes the minimal uvarint encoding
// of v occupies.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// canonicalQuery reports whether terms are strictly ascending,
// non-negative, and paired one-to-one with weights — the form
// retrieval.querySparse produces and the fast path requires.
func canonicalQuery(terms []int, weights []float64) bool {
	if len(terms) != len(weights) {
		return false
	}
	prev := -1
	for _, t := range terms {
		if t <= prev {
			return false
		}
		prev = t
	}
	return true
}

// NormalizeQuery canonicalizes an arbitrary sparse query: pairs are
// matched index-wise (extra terms or weights beyond the shorter slice
// are dropped), negative term IDs are dropped, duplicates are merged by
// summing their weights, and the result is sorted strictly ascending.
// Canonical input is returned as-is with no allocation; non-canonical
// input allocates the normalized copies.
func NormalizeQuery(terms []int, weights []float64) ([]int, []float64) {
	if canonicalQuery(terms, weights) {
		return terms, weights
	}
	n := min(len(terms), len(weights))
	type pair struct {
		t int
		w float64
	}
	pairs := make([]pair, 0, n)
	for i := 0; i < n; i++ {
		if terms[i] >= 0 {
			pairs = append(pairs, pair{terms[i], weights[i]})
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].t < pairs[j].t })
	outT := make([]int, 0, len(pairs))
	outW := make([]float64, 0, len(pairs))
	for _, p := range pairs {
		if len(outT) > 0 && outT[len(outT)-1] == p.t {
			outW[len(outW)-1] += p.w
			continue
		}
		outT = append(outT, p.t)
		outW = append(outW, p.w)
	}
	return outT, outW
}

// AppendQueryKey appends the canonical cache key for a sparse query at
// a given index epoch to dst and returns the extended slice. Queries
// already in canonical form (strictly ascending terms, parallel
// weights — what the retrieval layer produces) encode without
// normalization allocations; anything else is normalized first via
// NormalizeQuery.
func AppendQueryKey(dst []byte, epoch uint64, topN int, terms []int, weights []float64) []byte {
	if !canonicalQuery(terms, weights) {
		terms, weights = NormalizeQuery(terms, weights)
	}
	if topN < 0 {
		topN = 0
	}
	dst = append(dst, keyVersion)
	dst = binary.AppendUvarint(dst, epoch)
	dst = binary.AppendUvarint(dst, uint64(topN))
	dst = binary.AppendUvarint(dst, uint64(len(terms)))
	prev := 0
	for _, t := range terms {
		dst = binary.AppendUvarint(dst, uint64(t-prev))
		prev = t
	}
	var buf [8]byte
	for _, w := range weights {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(w))
		dst = append(dst, buf[:]...)
	}
	return dst
}

// DecodeQueryKey parses a key produced by AppendQueryKey back into its
// parts, rejecting anything that is not the canonical encoding (wrong
// version, truncation, trailing bytes, non-ascending terms, or a length
// prefix larger than the bytes behind it — the last makes adversarial
// keys unable to force unbounded allocation). It exists for tests and
// the fuzz harness; the serving path never decodes.
func DecodeQueryKey(key []byte) (epoch uint64, topN int, terms []int, weights []float64, err error) {
	fail := func(format string, args ...any) (uint64, int, []int, []float64, error) {
		return 0, 0, nil, nil, fmt.Errorf("cache: decode key: "+format, args...)
	}
	if len(key) == 0 || key[0] != keyVersion {
		return fail("missing or unknown version")
	}
	rest := key[1:]
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(rest)
		// Reject non-minimal varints (e.g. 0x80 0x00 for zero): the
		// encoder only emits minimal forms, and accepting a padded
		// alias would let two byte strings decode to one query.
		if n <= 0 || n != uvarintLen(v) {
			return 0, false
		}
		rest = rest[n:]
		return v, true
	}
	epoch, ok := next()
	if !ok {
		return fail("truncated epoch")
	}
	tn, ok := next()
	if !ok || tn > math.MaxInt32 {
		return fail("bad topN")
	}
	topN = int(tn)
	count, ok := next()
	// Each term costs >= 1 byte and each weight exactly 8, so a valid
	// length prefix can never exceed the remaining byte budget / 9.
	if !ok || count > uint64(len(rest))/9 {
		return fail("bad term count")
	}
	terms = make([]int, count)
	prev := 0
	for i := range terms {
		d, ok := next()
		if !ok {
			return fail("truncated term %d", i)
		}
		if i > 0 && d == 0 {
			return fail("term %d not strictly ascending", i)
		}
		t := uint64(prev) + d
		if t > math.MaxInt32 {
			return fail("term %d overflows", i)
		}
		terms[i] = int(t)
		prev = int(t)
	}
	if uint64(len(rest)) != 8*count {
		return fail("weight block is %d bytes, want %d", len(rest), 8*count)
	}
	weights = make([]float64, count)
	for i := range weights {
		weights[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
	}
	return epoch, topN, terms, weights, nil
}
