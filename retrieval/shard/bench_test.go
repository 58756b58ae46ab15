package shard

import (
	"fmt"
	"testing"
)

// Benchmarks for the sharded hot paths (EXPERIMENTS.md's appendix holds
// their PR 4 record), compiled-and-run by the CI bench-smoke job.
//
//   - BenchmarkShardedSearch holds the corpus fixed and varies the shard
//     count: the per-query cost model is S·O(nnz(q)·k) projections plus
//     one O(M·k) scan over all documents, so 1 vs 4 vs 16 shards mostly
//     measures fan-out overhead.
//   - BenchmarkIngestThroughput measures single-document Add latency
//     against a live index (fold-in + copy-on-write republication).

const (
	benchDocs = 1536
	benchRank = 8
)

func benchQueries(b *testing.B, x *Index) ([][]int, [][]float64) {
	b.Helper()
	a := testMatrix(b, 4, 30, 32, 90)
	var terms [][]int
	var weights [][]float64
	for j := 0; j < 32; j++ {
		n, _ := a.Dims()
		var ts []int
		var ws []float64
		for t := 0; t < n && t < x.NumTerms(); t++ {
			if v := a.At(t, j); v != 0 {
				ts = append(ts, t)
				ws = append(ws, v)
			}
		}
		terms = append(terms, ts)
		weights = append(weights, ws)
	}
	return terms, weights
}

func BenchmarkShardedSearch(b *testing.B) {
	a := testMatrix(b, 4, 30, benchDocs, 91)
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			x, err := Build(a, defaultIDs(benchDocs), Config{Shards: shards, Rank: benchRank, Seed: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer x.Close()
			terms, weights := benchQueries(b, x)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := i % len(terms)
				res := searchSparse(x, terms[q], weights[q], 10)
				if len(res) == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}

func BenchmarkIngestThroughput(b *testing.B) {
	a := testMatrix(b, 4, 30, 256, 92)
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			x, err := Build(a, defaultIDs(256), Config{Shards: shards, Rank: benchRank, Seed: 2, SealEvery: 512})
			if err != nil {
				b.Fatal(err)
			}
			defer x.Close()
			// Pre-extract the documents to fold so the timer sees only
			// ingest.
			var docs []Doc
			for j := 0; j < 256; j++ {
				terms, weights := sparseCol(a, j)
				docs = append(docs, Doc{Terms: terms, Weights: weights})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := x.Add(docs[i%len(docs)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "docs/s")
		})
	}
}
