package segment

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ivf"
	"repro/internal/lsi"
	"repro/internal/quant"
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
			UkRows: terms, UkData: basis, DocRows: m, DocData: lsi.Narrow(normal(m * k)),
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

// The eight-term query the search benchmarks fold.
var (
	benchTerms   = []int{3, 40, 77, 150, 400, 900, 1200, 1500}
	benchWeights = []float64{1, 1, 2, 1, 1, 1.5, 1, 1}
)

// BenchmarkSearchExactSegments is the exact route over the same 51,200
// documents at rank 64 cut into 1..12 segments: the cost of a search
// must not depend on how many segments hold the corpus. (It is what
// decided, in PR 17, against one par fan-out per segment; see
// EXPERIMENTS.md "One search path".) SearchSparseOpts is the frozen
// entry point, so the file runs unchanged against older trees.
func BenchmarkSearchExactSegments(b *testing.B) {
	for _, nseg := range []int{1, 2, 3, 6, 12} {
		segs := syntheticSegments(b, nseg, 51200, 1600, 64)
		b.Run(fmt.Sprintf("segs=%d", nseg), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SearchSparseOpts(segs, benchTerms, benchWeights, 10, ProbeOptions{})
			}
		})
	}
}

// BenchmarkSearchRoutes is one segment of the ledger's shape (51,200
// documents at rank 64) carrying both sidecars, searched down each of the
// four routes at the ledger's budgets (64 cells, 4 probed, β = 16): the
// bench gate's coverage of the ANN and composed routes, which no other
// gated benchmark crosses. The documents are unclustered, so the
// readings are costs, not recall. SearchSparseOpts is the frozen entry
// point, so the file runs unchanged against older trees.
func BenchmarkSearchRoutes(b *testing.B) {
	seg := syntheticSegments(b, 1, 51200, 1600, 64)[0]
	ann, err := ivf.Train(seg.Ix.DocVectors(), seg.Ix.Norms(), ivf.TrainOptions{NList: 64, Seed: 1, Iters: 2})
	if err != nil {
		b.Fatal(err)
	}
	if seg, err = seg.WithTiers(TierConfig{}, ann, quant.Quantize(seg.Ix.DocVectors())); err != nil {
		b.Fatal(err)
	}
	segs := []*Segment{seg}
	for _, route := range []struct {
		name string
		opts ProbeOptions
	}{
		{"exact", ProbeOptions{}},
		{"ann", ProbeOptions{NProbe: 4}},
		{"quant", ProbeOptions{Beta: 16}},
		{"composed", ProbeOptions{NProbe: 4, Beta: 16}},
	} {
		b.Run(route.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SearchSparseOpts(segs, benchTerms, benchWeights, 10, route.opts)
			}
		})
	}
}

// ledgerSealed is a sealed fold-in segment of the benchmark ledger's
// shape: docs documents of the ε-separable 64-topic model (1,600 terms,
// ε = 0.1, 50–100 tokens, ~30 distinct terms each, topics dealt
// round-robin), folded into a rank-64 basis built over the first 128.
func ledgerSealed(tb testing.TB, docs int) (seg *Segment, numTerms int) {
	tb.Helper()
	model, err := corpus.PureSeparableModel(corpus.SeparableConfig{
		NumTopics: 64, TermsPerTopic: 25, Epsilon: 0.1, MinLen: 50, MaxLen: 100,
	})
	if err != nil {
		tb.Fatal(err)
	}
	model.Sampler = &corpus.RoundRobinSampler{NumTopics: 64, MinLen: 50, MaxLen: 100}
	c, err := corpus.Generate(model, docs, rand.New(rand.NewSource(22)))
	if err != nil {
		tb.Fatal(err)
	}
	terms, weights := make([][]int, docs), make([][]float64, docs)
	for j, d := range c.Docs {
		terms[j] = d.Terms
		weights[j] = make([]float64, len(d.Counts))
		for i, n := range d.Counts {
			weights[j][i] = float64(n)
		}
	}
	head := &corpus.Corpus{NumTerms: c.NumTerms, Docs: c.Docs[:min(docs, 128)]}
	base, err := lsi.BuildFromCorpus(head, 64, corpus.CountWeighting, lsi.Options{Engine: lsi.EngineRandomized, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	live, err := New(base.EmptyLike(), nil, nil, false)
	if err != nil {
		tb.Fatal(err)
	}
	if seg, err = live.Extend(terms, weights, identity(docs)); err != nil {
		tb.Fatal(err)
	}
	return seg, base.NumTerms()
}

// BenchmarkCompactLedgerShape is segment.Compact of one sealed segment at
// the ledger's rank: 128 documents is the ledger's freshly sealed
// segment (segment.compact_s and most of ingest_mixed's compactions),
// 512 and 2,048 the size-tiered merges above it. Its readings are
// EXPERIMENTS.md "Compaction engines (PR 22)".
func BenchmarkCompactLedgerShape(b *testing.B) {
	for _, docs := range []int{128, 512, 2048} {
		seg, n := ledgerSealed(b, docs)
		b.Run(fmt.Sprintf("docs=%d", docs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compact([]*Segment{seg}, n, CompactOptions{K: 64, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
