package ivf

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/topk"
)

// The recall/speedup benchmark the PR's acceptance bar reads: a 100k-doc
// clustered corpus (the regime the paper proves LSI produces), one
// quantizer at the rule-of-thumb nlist ≈ sqrt(m)/2 scale, and a probe
// sweep. Each sub-benchmark reports recall@10 against the exhaustive
// ground truth and the candidate docs scanned per query, so one run
// captures the full recall-vs-speedup frontier (EXPERIMENTS.md, "ANN
// recall-vs-speedup frontier (PR 9)"):
//
//	go test ./internal/ivf -run '^$' -bench BenchmarkANNRecall
//
// The "exhaustive" sub-benchmark is the flat-scan baseline the speedups
// are measured against.

const (
	benchDocs   = 100_000
	benchDim    = 16
	benchTopics = 128
	benchNList  = 128
	benchTopN   = 10
)

var annBench struct {
	once    sync.Once
	vecs    *mat.Dense
	norms   []float64
	x       *Index
	queries [][]float64
	qns     []float64
	truth   []map[int]bool // exhaustive top-10 per query
}

func annBenchSetup(b *testing.B) {
	b.Helper()
	annBench.once.Do(func() {
		vecs, norms := clusteredVecs(b, benchDocs, benchDim, benchTopics, 0.25, 42)
		x, err := Train(vecs, norms, TrainOptions{NList: benchNList, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))
		const nq = 64
		queries := make([][]float64, nq)
		qns := make([]float64, nq)
		truth := make([]map[int]bool, nq)
		for q := 0; q < nq; q++ {
			pq := append([]float64(nil), vecs.Row(rng.Intn(benchDocs))...)
			for d := range pq {
				pq[d] += 0.05 * rng.NormFloat64()
			}
			queries[q], qns[q] = pq, mat.Norm(pq)
			truth[q] = make(map[int]bool, benchTopN)
			for _, m := range exhaustive(vecs, norms, pq, qns[q], benchTopN) {
				truth[q][m.Doc] = true
			}
		}
		annBench.vecs, annBench.norms, annBench.x = vecs, norms, x
		annBench.queries, annBench.qns, annBench.truth = queries, qns, truth
	})
	if annBench.x == nil {
		b.Fatal("ANN bench setup failed in an earlier sub-benchmark")
	}
}

func BenchmarkANNRecall(b *testing.B) {
	annBenchSetup(b)
	s := &annBench

	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := i % len(s.queries)
			exhaustive(s.vecs, s.norms, s.queries[q], s.qns[q], benchTopN)
		}
		b.ReportMetric(1.0, "recall@10")
		b.ReportMetric(benchDocs, "docs/op")
	})

	for _, nprobe := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("nprobe=%d", nprobe), func(b *testing.B) {
			var buf []topk.Match
			var docs int64
			for i := 0; i < b.N; i++ {
				q := i % len(s.queries)
				var st ProbeStats
				buf, st = s.x.AppendSearch(buf[:0], s.vecs, s.norms, s.queries[q], s.qns[q], benchTopN, nprobe)
				docs += int64(st.Docs)
			}
			b.StopTimer()
			b.ReportMetric(float64(docs)/float64(b.N), "docs/op")
			// Recall is a property of the configuration, not the timing
			// loop: measure it once over the whole query set.
			hits, want := 0, 0
			for q := range s.queries {
				buf, _ = s.x.AppendSearch(buf[:0], s.vecs, s.norms, s.queries[q], s.qns[q], benchTopN, nprobe)
				for _, m := range buf {
					if s.truth[q][m.Doc] {
						hits++
					}
				}
				want += len(s.truth[q])
			}
			b.ReportMetric(float64(hits)/float64(want), "recall@10")
		})
	}
}

// BenchmarkTrainShardShape trains one shard's quantizer at the ledger's
// shape. Round-robin dealing puts 25,600 documents of 32 topics (every
// other one of 64) in each of two shards, at rank 64 and into 64 cells;
// noise 0.12 gives the mean cosine to the topic direction, ≈ 0.99, that
// the LSI vectors of such a shard have. dots/doc-pass is the scores each
// Lloyd pass computes per document, where a full scan computes nlist =
// 64; passes is how many ran after seeding.
func BenchmarkTrainShardShape(b *testing.B) {
	const m, dim, topics, nlist = 25_600, 64, 32, 64
	vecs, norms := clusteredVecs(b, m, dim, topics, 0.12, 3)
	stored := mat.Narrow(vecs)
	var st trainStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if _, st, err = train(stored, norms, TrainOptions{NList: nlist, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.dots)/float64(m*st.passes), "dots/doc-pass")
	b.ReportMetric(float64(st.passes), "passes")
}
