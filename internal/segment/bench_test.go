package segment

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/lsi"
)

// syntheticSegments splits numDocs random rank-k documents over nseg
// segments sharing one random basis: the benchmark ledger's shape
// without the SVD that would produce it.
func syntheticSegments(tb testing.TB, nseg, numDocs, terms, k int) []*Segment {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	normal := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	basis, sigma := normal(terms*k), make([]float64, k)
	for i := range sigma {
		sigma[i] = float64(k - i)
	}
	segs := make([]*Segment, nseg)
	for s := range segs {
		m := numDocs / nseg
		ix, err := lsi.NewIndexFromParts(lsi.IndexParts{
			K: k, NumTerms: terms, Sigma: sigma,
			UkRows: terms, UkData: basis, DocRows: m, DocData: normal(m * k),
		})
		if err != nil {
			tb.Fatal(err)
		}
		global := make([]int, m)
		for j := range global {
			global[j] = s*m + j
		}
		if segs[s], err = New(ix, global, nil, true); err != nil {
			tb.Fatal(err)
		}
	}
	return segs
}

// BenchmarkSearchExactSegments is the exact route over the same 51,200
// documents at rank 64 cut into 1..12 segments: the cost of a search
// must not depend on how many segments hold the corpus. (It is what
// decided, in PR 17, against one par fan-out per segment; see
// EXPERIMENTS.md "One search path".) SearchSparseOpts is the frozen
// entry point, so the file runs unchanged against older trees.
func BenchmarkSearchExactSegments(b *testing.B) {
	terms := []int{3, 40, 77, 150, 400, 900, 1200, 1500}
	weights := []float64{1, 1, 2, 1, 1, 1.5, 1, 1}
	for _, nseg := range []int{1, 2, 3, 6, 12} {
		segs := syntheticSegments(b, nseg, 51200, 1600, 64)
		b.Run(fmt.Sprintf("segs=%d", nseg), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SearchSparseOpts(segs, terms, weights, 10, ProbeOptions{})
			}
		})
	}
}
