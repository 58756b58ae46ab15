package shard

import (
	"encoding/json"
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
//   - BenchmarkParseManifest parses the manifest of the tiered ledger
//     shape (2 shards × 25,600 documents, one tiered segment each) as
//     version 1 wrote it, every global listed, and as version 2 writes it.

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

func BenchmarkParseManifest(b *testing.B) {
	const shards, perShard = 2, 25600
	for _, version := range []int{1, 2} {
		b.Run(fmt.Sprintf("v%d", version), func(b *testing.B) {
			m := Manifest{Version: version, Format: manifestFormat, Shards: shards, Rank: 64, NumTerms: 1600,
				NumDocs: shards * perShard, SealEvery: 128, IDsFile: fmt.Sprintf(idsFileFmt, 0)}
			for s := 0; s < shards; s++ {
				e := ManifestSegment{File: fmt.Sprintf(segFileFmt, 0, s, 0), Docs: perShard, Compacted: true, Base: true,
					ANNFile: fmt.Sprintf(annFileFmt, 0, s, 0), QuantFile: fmt.Sprintf(quantFileFmt, 0, s, 0)}
				if version == 1 {
					e.Globals = roundRobin(s, shards, 0, perShard)
				}
				m.Segments = append(m.Segments, []ManifestSegment{e})
			}
			data, err := json.MarshalIndent(m, "", "  ") // as the checkpoint writer encodes it
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ParseManifest(data); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(data)), "manifest-bytes")
		})
	}
}
