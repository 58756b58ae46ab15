package quant

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/topk"
)

// The throughput-vs-fidelity frontier the PR's acceptance bar reads: a
// 100k-doc clustered corpus at rank 64, scanned single-threaded so the
// ratio between sub-benchmarks is the per-core bandwidth story, not a
// scheduling artifact. Each quantized sub-benchmark reports its top-10
// overlap with the float path, so one run captures the full frontier
// (EXPERIMENTS.md, "Quantized scan frontier (PR 10)"):
//
//	go test ./internal/quant -run '^$' -bench BenchmarkQuantizedScan
//
// The "float64" sub-benchmark is the exact-scan baseline the speedups
// are measured against; "bytes/op"-style bandwidth shows up through
// SetBytes on the matrix footprint each scan streams.

const (
	benchDocs   = 100_000
	benchDim    = 64
	benchTopics = 128
	benchTopN   = 10
)

var quantBench struct {
	once    sync.Once
	vecs    *mat.Dense
	norms   []float64
	qm      *Matrix
	queries [][]float64
	qns     []float64
	truth   []map[int]bool // exact top-10 per query
}

func quantBenchSetup(b *testing.B) {
	b.Helper()
	quantBench.once.Do(func() {
		vecs, norms := clusteredVecs(b, benchDocs, benchDim, benchTopics, 0.25, 42)
		qm := Quantize(vecs)
		queries, qns := searchQueries(vecs, 64, 99)
		truth := make([]map[int]bool, len(queries))
		for q := range queries {
			truth[q] = make(map[int]bool, benchTopN)
			for _, m := range exhaustive(vecs, norms, queries[q], qns[q], benchTopN) {
				truth[q][m.Doc] = true
			}
		}
		quantBench.vecs, quantBench.norms, quantBench.qm = vecs, norms, qm
		quantBench.queries, quantBench.qns, quantBench.truth = queries, qns, truth
	})
	if quantBench.qm == nil {
		b.Fatal("quant bench setup failed in an earlier sub-benchmark")
	}
}

func BenchmarkQuantizedScan(b *testing.B) {
	quantBenchSetup(b)
	s := &quantBench
	old := par.SetMaxProcs(1)
	defer par.SetMaxProcs(old)

	b.Run("float64", func(b *testing.B) {
		b.SetBytes(benchDocs * benchDim * 8)
		for i := 0; i < b.N; i++ {
			q := i % len(s.queries)
			exhaustive(s.vecs, s.norms, s.queries[q], s.qns[q], benchTopN)
		}
		b.ReportMetric(1.0, "overlap@10")
	})

	for _, beta := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("int8-beta%d", beta), func(b *testing.B) {
			b.SetBytes(benchDocs*benchDim + benchDocs*8)
			var buf []topk.Match
			for i := 0; i < b.N; i++ {
				q := i % len(s.queries)
				buf, _ = s.qm.AppendSearch(buf[:0], s.vecs, s.norms, s.queries[q], s.qns[q], benchTopN, beta)
			}
			b.StopTimer()
			// Overlap is a property of the configuration, not the timing
			// loop: measure it once over the whole query set.
			hits, want := 0, 0
			for q := range s.queries {
				buf, _ = s.qm.AppendSearch(buf[:0], s.vecs, s.norms, s.queries[q], s.qns[q], benchTopN, beta)
				for _, m := range buf {
					if s.truth[q][m.Doc] {
						hits++
					}
				}
				want += len(s.truth[q])
			}
			b.ReportMetric(float64(hits)/float64(want), "overlap@10")
		})
	}
}

func BenchmarkQuantize(b *testing.B) {
	quantBenchSetup(b)
	b.SetBytes(benchDocs * benchDim * 8)
	for i := 0; i < b.N; i++ {
		Quantize(quantBench.vecs)
	}
}

// BenchmarkQuantScanMillion is the regime the quantization exists for: a
// corpus large enough that the float64 matrix (256 MB at rank 32) cannot
// live in any cache while the int8 shadow (32 MB) largely can, making
// the float scan memory-bound and the quantized scan compute-bound. Not
// part of the bench-gate tier-1 set (setup alone moves ~300 MB); it is
// run explicitly to record the PR 10 frontier (EXPERIMENTS.md).
func BenchmarkQuantScanMillion(b *testing.B) {
	if testing.Short() {
		b.Skip("large-corpus benchmark skipped in -short mode")
	}
	const (
		mDocs = 400_000
		mDim  = 128
	)
	vecs, norms := clusteredVecs(b, mDocs, mDim, 256, 0.25, 43)
	qm := Quantize(vecs)
	queries, qns := searchQueries(vecs, 16, 100)
	old := par.SetMaxProcs(1)
	defer par.SetMaxProcs(old)

	b.Run("float64", func(b *testing.B) {
		b.SetBytes(mDocs * mDim * 8)
		for i := 0; i < b.N; i++ {
			q := i % len(queries)
			exhaustive(vecs, norms, queries[q], qns[q], benchTopN)
		}
	})
	b.Run("int8-beta4", func(b *testing.B) {
		b.SetBytes(mDocs*mDim + mDocs*8)
		var buf []topk.Match
		for i := 0; i < b.N; i++ {
			q := i % len(queries)
			buf, _ = qm.AppendSearch(buf[:0], vecs, norms, queries[q], qns[q], benchTopN, 4)
		}
	})
}
