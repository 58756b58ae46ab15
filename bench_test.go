package repro

// One benchmark per paper artifact (table, figure, or theorem-shaped
// claim), as indexed in DESIGN.md §11. Each benchmark runs the scaled-down
// configuration of the corresponding experiment so `go test -bench=.`
// finishes in minutes; `cmd/lsibench` runs the full paper-scale versions.
// b.ReportMetric attaches the headline quantity of each experiment so a
// bench run doubles as a results summary.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/ivf"
	"repro/internal/lsi"
	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/quant"
	"repro/internal/randproj"
	"repro/internal/sparse"
	"repro/internal/svd"
	"repro/internal/topk"
)

// BenchmarkTable1AngleStats regenerates the paper's Section 4 table
// (intratopic/intertopic angle statistics, original vs LSI space).
func BenchmarkTable1AngleStats(b *testing.B) {
	cfg := experiments.SmallTable1Config()
	var last *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.LSIIntra.Mean, "intra-rad")
	b.ReportMetric(last.LSIInter.Mean, "inter-rad")
}

// BenchmarkTheorem2Skew validates Theorem 2 (0-separable ⇒ near-0-skewed).
func BenchmarkTheorem2Skew(b *testing.B) {
	cfg := experiments.SmallTheorem2Config()
	var last *experiments.Theorem2Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTheorem2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Rows[len(last.Rows)-1].LSISkew, "skew")
}

// BenchmarkTheorem3EpsilonSweep validates Theorem 3 (skew = O(ε)).
func BenchmarkTheorem3EpsilonSweep(b *testing.B) {
	cfg := experiments.SmallTheorem3Config()
	var last *experiments.Theorem3Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTheorem3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Rows[len(last.Rows)-1].LSISkew, "skew-at-max-eps")
}

// BenchmarkLemma1Perturbation validates the invariant-subspace stability
// lemma.
func BenchmarkLemma1Perturbation(b *testing.B) {
	cfg := experiments.DefaultLemma1Config()
	cfg.Epsilons = []float64{0.01, 0.05}
	cfg.Trials = 2
	var last *experiments.Lemma1Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLemma1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Rows[0].Ratio, "Gnorm-per-eps")
}

// BenchmarkJLDistortion validates Lemma 2 (Johnson–Lindenstrauss).
func BenchmarkJLDistortion(b *testing.B) {
	cfg := experiments.SmallJLConfig()
	var last *experiments.JLResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunJL(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Rows[len(last.Rows)-1].Report.DistanceRatio.Std, "dist-ratio-std")
}

// BenchmarkTheorem5TwoStep validates the two-step residual bound.
func BenchmarkTheorem5TwoStep(b *testing.B) {
	cfg := experiments.SmallTheorem5Config()
	var last *experiments.Theorem5Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTheorem5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Rows[len(last.Rows)-1].RecoveredFrac, "recovered-frac")
}

// BenchmarkLSIFullSVD times the paper's direct-LSI cost model — a full SVD
// of the term-document matrix, the O(mnc) side of the Section 5 cost
// comparison.
func BenchmarkLSIFullSVD(b *testing.B) {
	model, err := corpus.PureSeparableModel(corpus.SeparableConfig{
		NumTopics: 10, TermsPerTopic: 100, Epsilon: 0.05, MinLen: 50, MaxLen: 100,
	})
	if err != nil {
		b.Fatal(err)
	}
	c, err := corpus.Generate(model, 400, rand.New(rand.NewSource(99)))
	if err != nil {
		b.Fatal(err)
	}
	ad := corpus.TermDocMatrix(c, corpus.CountWeighting).ToDense()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svd.Decompose(ad); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLSIDirect times truncated rank-k Lanczos on the sparse matrix —
// the modern direct baseline (already below the paper's O(mnc) accounting).
func BenchmarkLSIDirect(b *testing.B) {
	model, err := corpus.PureSeparableModel(corpus.SeparableConfig{
		NumTopics: 10, TermsPerTopic: 100, Epsilon: 0.05, MinLen: 50, MaxLen: 100,
	})
	if err != nil {
		b.Fatal(err)
	}
	c, err := corpus.Generate(model, 400, rand.New(rand.NewSource(99)))
	if err != nil {
		b.Fatal(err)
	}
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Lanczos(a, 10, experiments.LanczosOptions{
			Reorthogonalize: true, Rng: rand.New(rand.NewSource(7)),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLSITwoStep times the two-step method on the same matrix — the
// O(ml(l+c)) side.
func BenchmarkLSITwoStep(b *testing.B) {
	model, err := corpus.PureSeparableModel(corpus.SeparableConfig{
		NumTopics: 10, TermsPerTopic: 100, Epsilon: 0.05, MinLen: 50, MaxLen: 100,
	})
	if err != nil {
		b.Fatal(err)
	}
	c, err := corpus.Generate(model, 400, rand.New(rand.NewSource(99)))
	if err != nil {
		b.Fatal(err)
	}
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := randproj.NewTwoStep(a, 10, 80, randproj.TwoStepOptions{Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynonymy regenerates the Section 4 synonymy analysis.
func BenchmarkSynonymy(b *testing.B) {
	cfg := experiments.SmallSynonymyConfig()
	var last *experiments.SynonymyResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSynonymy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Pairs[0].LSICosine, "lsi-cos")
}

// BenchmarkTheorem6Graph validates the graph-model discovery theorem.
func BenchmarkTheorem6Graph(b *testing.B) {
	cfg := experiments.SmallTheorem6Config()
	var last *experiments.Theorem6Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTheorem6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Rows[0].MeanAccuracy, "accuracy")
}

// BenchmarkRetrievalQuality regenerates the LSI-vs-VSM synonymy comparison.
func BenchmarkRetrievalQuality(b *testing.B) {
	cfg := experiments.SmallRetrievalConfig()
	var last *experiments.RetrievalResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunRetrieval(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.LSIMAP-last.VSMMAP, "map-gain")
}

// BenchmarkCollabFilter regenerates the Section 6 collaborative-filtering
// comparison.
func BenchmarkCollabFilter(b *testing.B) {
	cfg := experiments.SmallCFConfig()
	var last *experiments.CFResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCF(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Rows[0].LSIRecall-last.Rows[0].PopRecall, "recall-gain")
}

// BenchmarkStyleDegradation runs the Definition 3 style-strength sweep.
func BenchmarkStyleDegradation(b *testing.B) {
	cfg := experiments.SmallStyleConfig()
	var last *experiments.StyleResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunStyle(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Rows[len(last.Rows)-1].LSISkew, "skew-at-max-strength")
}

// BenchmarkSampling runs the §5 sampling-vs-projection comparison.
func BenchmarkSampling(b *testing.B) {
	cfg := experiments.SmallSamplingConfig()
	var last *experiments.SamplingResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSampling(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Rows[len(last.Rows)-1].EnergyFrac, "proj-energy-frac")
}

// BenchmarkPolysemy runs the polysemy open-question experiment.
func BenchmarkPolysemy(b *testing.B) {
	cfg := experiments.SmallPolysemyConfig()
	var last *experiments.PolysemyResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunPolysemy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Terms[0].ContextPrecisionA, "ctx-precision")
}

// BenchmarkMixtureExtension runs the multi-topic extension experiment.
func BenchmarkMixtureExtension(b *testing.B) {
	cfg := experiments.SmallMixtureConfig()
	var last *experiments.MixtureResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMixture(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Correlation, "overlap-corr")
}

// BenchmarkSVDEngines compares the SVD engines on a fixed corpus matrix —
// the ablation behind the engine choice in DESIGN.md §12.
func BenchmarkSVDEngines(b *testing.B) {
	model, err := corpus.PureSeparableModel(corpus.SeparableConfig{
		NumTopics: 5, TermsPerTopic: 40, Epsilon: 0.05, MinLen: 40, MaxLen: 80,
	})
	if err != nil {
		b.Fatal(err)
	}
	c, err := corpus.Generate(model, 150, rand.New(rand.NewSource(99)))
	if err != nil {
		b.Fatal(err)
	}
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	ad := a.ToDense()
	b.Run("golub-reinsch-dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := svd.Decompose(ad); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("jacobi-dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Jacobi(ad); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lanczos-k5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Lanczos(a, 5, experiments.LanczosOptions{
				Reorthogonalize: true, Rng: rand.New(rand.NewSource(7)),
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("randomized-k5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := svd.Randomized(a.Block(), 5, svd.RandomizedOptions{
				Rng: rand.New(rand.NewSource(7)),
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLanczosDimAblation reruns the Krylov-dimension ablation.
func BenchmarkLanczosDimAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunLanczosDimAblation(17); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRandomizedParamAblation reruns the randomized-SVD parameter
// ablation.
func BenchmarkRandomizedParamAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunRandomizedParamAblation(17); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeightingAblation reruns the §2 weighting-choice ablation.
func BenchmarkWeightingAblation(b *testing.B) {
	cfg := experiments.SmallTable1Config()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunWeightingAblation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexBuild measures end-to-end LSI index construction at the
// paper's matrix shape (2000×1000 scaled to 1/4 size for bench time).
func BenchmarkIndexBuild(b *testing.B) {
	model, err := corpus.PureSeparableModel(corpus.SeparableConfig{
		NumTopics: 20, TermsPerTopic: 25, Epsilon: 0.05, MinLen: 50, MaxLen: 100,
	})
	if err != nil {
		b.Fatal(err)
	}
	c, err := corpus.Generate(model, 250, rand.New(rand.NewSource(99)))
	if err != nil {
		b.Fatal(err)
	}
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lsi.Build(a, 20, lsi.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// evenTopics deals documents to topics 0, 2, 4, … in turn: what one
// shard of a two-shard build receives from a round-robin corpus, since
// documents are dealt to shards round-robin too.
type evenTopics struct{ numTopics, next int }

func (s *evenTopics) SampleSpec(rng *rand.Rand) corpus.DocSpec {
	topic := 2 * s.next % s.numTopics
	s.next++
	return corpus.DocSpec{TopicIDs: []int{topic}, TopicWeights: []float64{1}, Length: 50 + rng.Intn(51)}
}

// BenchmarkTierRecompute weighs ROADMAP item 5: a segment's ANN and int8
// tiers recomputed (ivf.Train32, nlist 64, plus quant.Quantize32) against
// decoded from the sidecar files that ship them (ivf.Decode plus
// quant.Decode, from bytes already in memory). The segment is one shard
// of the ledger's tiered build, 25,600 documents of the ledger's corpus
// model (32 of its 64 topics, rank 64), and one of 4× the documents.
// sidecar_B is the two files' size.
func BenchmarkTierRecompute(b *testing.B) {
	for _, m := range []int{25_600, 102_400} {
		var ix *lsi.Index
		segment := func(b *testing.B) *lsi.Index {
			if ix != nil {
				return ix
			}
			model, err := corpus.PureSeparableModel(corpus.SeparableConfig{
				NumTopics: 64, TermsPerTopic: 25, Epsilon: 0.1, MinLen: 50, MaxLen: 100,
			})
			if err != nil {
				b.Fatal(err)
			}
			model.Sampler = &evenTopics{numTopics: 64}
			c, err := corpus.Generate(model, m, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			if ix, err = lsi.Build(corpus.TermDocMatrix(c, corpus.LogWeighting), 64, lsi.Options{Engine: lsi.EngineRandomized, Seed: 1}); err != nil {
				b.Fatal(err)
			}
			return ix
		}
		train := func(ix *lsi.Index) (*ivf.Index, *quant.Matrix) {
			ann, err := ivf.Train32(ix.Docs(), ix.Norms(), ivf.TrainOptions{NList: 64, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			return ann, quant.Quantize32(ix.Docs())
		}
		b.Run(fmt.Sprintf("docs=%d/recompute", m), func(b *testing.B) {
			ix := segment(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				train(ix)
			}
		})
		b.Run(fmt.Sprintf("docs=%d/decode", m), func(b *testing.B) {
			ann, qm := train(segment(b))
			annFile, qmFile := ann.Encode(), qm.Encode()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ivf.Read(bytes.NewReader(annFile)); err != nil {
					b.Fatal(err)
				}
				if _, err := quant.Read(bytes.NewReader(qmFile)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(annFile)+len(qmFile)), "sidecar_B")
		})
	}
}

// benchBatchQueries builds an index over a paper-scale corpus plus a
// batch of 64 full-document queries for the serial/parallel throughput
// pair below.
func benchBatchQueries(b *testing.B) (*lsi.Index, [][]float64) {
	b.Helper()
	model, err := corpus.PureSeparableModel(corpus.SeparableConfig{
		NumTopics: 10, TermsPerTopic: 50, Epsilon: 0.05, MinLen: 50, MaxLen: 100,
	})
	if err != nil {
		b.Fatal(err)
	}
	c, err := corpus.Generate(model, 2000, rand.New(rand.NewSource(99)))
	if err != nil {
		b.Fatal(err)
	}
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	ix, err := lsi.Build(a, 10, lsi.Options{})
	if err != nil {
		b.Fatal(err)
	}
	queries := make([][]float64, 64)
	for i := range queries {
		queries[i] = a.Col(i % a.Cols())
	}
	return ix, queries
}

// BenchmarkBatchQueriesSerial times folding + cosine ranking a 64-query
// batch with the parallel substrate pinned to one worker — the serial
// baseline for the pair.
func BenchmarkBatchQueriesSerial(b *testing.B) {
	ix, queries := benchBatchQueries(b)
	old := par.SetMaxProcs(1)
	defer par.SetMaxProcs(old)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		searchAll(ix, queries)
	}
}

// BenchmarkBatchQueriesParallel is the same batch with query fan-out
// enabled; the speedup over BenchmarkBatchQueriesSerial is the serving-
// path headline for the perf trajectory.
func BenchmarkBatchQueriesParallel(b *testing.B) {
	ix, queries := benchBatchQueries(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		searchAll(ix, queries)
	}
}

// searchAll ranks the top 10 for every query, fanning whole queries
// across par workers.
func searchAll(ix *lsi.Index, queries [][]float64) {
	out := make([][]lsi.Match, len(queries))
	grain := par.GrainFor((ix.NumTerms() + ix.NumDocs()) * ix.K())
	par.For(len(queries), grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = ix.Search(queries[i], 10)
		}
	})
}

// benchQueryIndex builds the 500-document index the single-query latency
// benchmarks run against.
func benchQueryIndex(b *testing.B) (*lsi.Index, *sparse.CSR) {
	b.Helper()
	model, err := corpus.PureSeparableModel(corpus.SeparableConfig{
		NumTopics: 10, TermsPerTopic: 50, Epsilon: 0.05, MinLen: 50, MaxLen: 100,
	})
	if err != nil {
		b.Fatal(err)
	}
	c, err := corpus.Generate(model, 500, rand.New(rand.NewSource(99)))
	if err != nil {
		b.Fatal(err)
	}
	a := corpus.TermDocMatrix(c, corpus.CountWeighting)
	ix, err := lsi.Build(a, 10, lsi.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return ix, a
}

// BenchmarkQueryLatency measures single-query latency against a built
// index: dense fold-in + fused-dot ranking + bounded top-10 selection.
func BenchmarkQueryLatency(b *testing.B) {
	ix, a := benchQueryIndex(b)
	q := a.Col(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search(q, 10)
	}
}

// BenchmarkQueryLatencySparse is the text-query shape of the latency
// benchmark: a short sparse query (a handful of terms) folded in through
// the sparse kernel, never materializing a vocabulary-length vector.
func BenchmarkQueryLatencySparse(b *testing.B) {
	ix, _ := benchQueryIndex(b)
	terms := []int{3, 57, 211, 402}
	weights := []float64{1, 2, 1, 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.SearchSparse(terms, weights, 10)
	}
}

// BenchmarkTopKSelection isolates the selection stage: bounded min-heap
// top-10 versus sorting all m scored matches — the m·log m term the heap
// removes from every query.
func BenchmarkTopKSelection(b *testing.B) {
	const m = 100000
	src := make([]topk.Match, m)
	rng := rand.New(rand.NewSource(17))
	for i := range src {
		src[i] = topk.Match{Doc: i, Score: rng.Float64()}
	}
	scratch := make([]topk.Match, m)
	b.Run("heap-top10", func(b *testing.B) {
		var h topk.Heap
		dst := make([]topk.Match, 0, 10)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Reset(10)
			for _, m := range src {
				h.Offer(m)
			}
			dst = h.AppendSorted(dst[:0])
		}
	})
	b.Run("full-sort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(scratch, src)
			topk.SortMatches(scratch)
		}
	})
}

// BenchmarkSetupStages times the stages of the repository benchmark's
// set-up, one sub-benchmark each, on its data: sampling the corpus
// (corpus.Generate, 64 × 800 documents), the text front end (bench's
// rendering to the count-weighted term-document matrix), the rank-64
// randomized SVD of that matrix, and one of the QRInPlace calls inside
// it, on a documents × sketch block (51,200 × 74). The stages run at
// par.MaxProcs 1, so each ns/op is its stage's exact single-core cost
// (at -cpu 1 the collector's share too): the profile ROADMAP's set-up
// rule asks for, with no pool goroutine's samples left unattributed.
func BenchmarkSetupStages(b *testing.B) {
	defer par.SetMaxProcs(par.SetMaxProcs(1))
	var (
		c     *corpus.Corpus
		texts []string
		a     *sparse.CSR
	)
	matrix := func(b *testing.B) *sparse.CSR {
		if c == nil {
			c = ledgerCorpus(b, 1)
		}
		if texts == nil {
			for _, d := range c.Docs {
				texts = append(texts, renderLedgerText(d))
			}
		}
		if a == nil {
			a = (&ir.Pipeline{}).TermDocMatrix(texts, corpus.CountWeighting)
		}
		return a
	}
	b.Run("sample", func(b *testing.B) {
		// ledgerCorpus calls Helper, whose first call allocates testing's
		// helper table; made here, before b.Loop resets the counters, it
		// stays out of allocs/op at every iteration count.
		b.Helper()
		for b.Loop() {
			c = ledgerCorpus(b, 1)
		}
	})
	b.Run("text", func(b *testing.B) {
		matrix(b)
		for b.Loop() {
			a = (&ir.Pipeline{}).TermDocMatrix(texts, corpus.CountWeighting)
		}
	})
	b.Run("svd", func(b *testing.B) {
		op := matrix(b).Block()
		for b.Loop() {
			if _, err := svd.Randomized(op, 64, svd.RandomizedOptions{Rng: rand.New(rand.NewSource(7))}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("qr", func(b *testing.B) {
		rng := rand.New(rand.NewSource(156))
		src := mat.NewDense(51200, 74)
		for i := range src.RawData() {
			src.RawData()[i] = rng.NormFloat64()
		}
		y := src.Clone()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(y.RawData(), src.RawData())
			b.StartTimer()
			mat.QRInPlace(y, 1e-12)
		}
	})
}
