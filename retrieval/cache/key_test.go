package cache

import (
	"bytes"
	"math"
	"testing"
)

func TestQueryKeyDeterministicAndDistinct(t *testing.T) {
	terms := []int{3, 57, 211}
	weights := []float64{1, 2, 1}
	k1 := AppendQueryKey(nil, 5, 10, terms, weights)
	k2 := AppendQueryKey(nil, 5, 10, terms, weights)
	if !bytes.Equal(k1, k2) {
		t.Fatal("same query encoded to different keys")
	}
	distinct := [][]byte{
		k1,
		AppendQueryKey(nil, 6, 10, terms, weights),                // epoch differs
		AppendQueryKey(nil, 5, 11, terms, weights),                // topN differs
		AppendQueryKey(nil, 5, 10, []int{3, 57, 212}, weights),    // term differs
		AppendQueryKey(nil, 5, 10, terms, []float64{1, 2, 1.5}),   // weight differs
		AppendQueryKey(nil, 5, 10, []int{3, 57}, []float64{1, 2}), // shorter
		AppendQueryKey(nil, 5, 10, []int{0}, []float64{1}),        // term 0 alone
		AppendQueryKey(nil, 5, 10, []int{0, 1}, []float64{1, 1}),  // adjacent terms
		AppendQueryKey(nil, 5, 0, terms, weights),                 // all-docs topN
		AppendQueryKey(nil, 5, 10, []int{}, []float64{}),          // empty query
	}
	for i := range distinct {
		for j := i + 1; j < len(distinct); j++ {
			if bytes.Equal(distinct[i], distinct[j]) {
				t.Fatalf("keys %d and %d collide: %x", i, j, distinct[i])
			}
		}
	}
}

func TestQueryKeyNormalizesTopN(t *testing.T) {
	terms, weights := []int{1}, []float64{1}
	if !bytes.Equal(AppendQueryKey(nil, 0, 0, terms, weights), AppendQueryKey(nil, 0, -3, terms, weights)) {
		t.Fatal("topN 0 and negative topN should share a key (both mean all documents)")
	}
}

// queryFrom turns fuzz bytes into a query in querySparse's form: each
// byte pair is a term step (1 or more, so terms ascend strictly, and large
// enough to reach multi-byte varints) and a weight drawn from values that
// include the awkward ones (signed zeros, NaN, infinities).
func queryFrom(b []byte) ([]int, []float64) {
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -1}
	var terms []int
	var weights []float64
	t := -1
	for ; len(b) >= 2; b = b[2:] {
		t += 1 + int(b[0])*int(b[0])*257
		w := float64(b[1]) / 3
		if int(b[1]) < len(specials) {
			w = specials[b[1]]
		}
		terms, weights = append(terms, t), append(weights, w)
	}
	return terms, weights
}

// FuzzQueryKeyInjective: two queries in querySparse's form (terms
// ascending, one weight each) share a key exactly when their epochs,
// topNs (every topN <= 0 is 0), terms and weight bits are equal.
func FuzzQueryKeyInjective(f *testing.F) {
	f.Add(uint64(0), uint64(0), 0, 0, []byte{}, []byte{})
	f.Add(uint64(5), uint64(5), 10, 10, []byte{3, 9, 57, 1}, []byte{3, 9, 57, 1})
	f.Add(uint64(5), uint64(6), 10, 10, []byte{3, 9}, []byte{3, 9})
	f.Add(uint64(1), uint64(1), 0, -3, []byte{0, 0}, []byte{0, 1})
	f.Add(uint64(math.MaxUint64), uint64(1), 1, 1, []byte{255, 2, 0, 2}, []byte{255, 2, 1, 2})
	f.Fuzz(func(t *testing.T, e1, e2 uint64, n1, n2 int, a, b []byte) {
		t1, w1 := queryFrom(a)
		t2, w2 := queryFrom(b)
		equal := e1 == e2 && max(n1, 0) == max(n2, 0) && len(t1) == len(t2)
		for i := 0; equal && i < len(t1); i++ {
			equal = t1[i] == t2[i] && math.Float64bits(w1[i]) == math.Float64bits(w2[i])
		}
		k1 := AppendQueryKey(nil, e1, n1, t1, w1)
		k2 := AppendQueryKey(nil, e2, n2, t2, w2)
		if bytes.Equal(k1, k2) != equal {
			t.Fatalf("queries equal = %v, keys equal = %v: %x, %x", equal, !equal, k1, k2)
		}
	})
}
