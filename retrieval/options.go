package retrieval

import (
	"fmt"

	"repro/internal/corpus"
	"repro/internal/lsi"
)

// Engine selects the SVD algorithm of an LSI build: internal/lsi's
// engine under this package's names. Build refuses a value outside the
// constants below.
type Engine = lsi.Engine

const (
	// EngineAuto picks the engine from the matrix shape: randomized,
	// unless the shorter side is under 32, where dense is faster.
	EngineAuto = lsi.EngineAuto
	// EngineDense runs the full dense Golub–Reinsch SVD.
	EngineDense = lsi.EngineDense
	// EngineRandomized runs randomized subspace iteration.
	EngineRandomized = lsi.EngineRandomized
)

// Weighting selects the function of raw term counts stored in the
// term-document matrix (Section 2 of the paper notes the precise choice
// does not affect its results; the repo's ablations verify that). It is
// internal/corpus's weighting under this package's names; Build and
// BuildVSM refuse a value outside the constants below.
type Weighting = corpus.Weighting

const (
	// WeightingCount stores raw occurrence counts.
	WeightingCount = corpus.CountWeighting
	// WeightingBinary stores 1 for any occurring term.
	WeightingBinary = corpus.BinaryWeighting
	// WeightingLog stores 1 + ln(count) — the Build default.
	WeightingLog = corpus.LogWeighting
	// WeightingTFIDF stores count × ln(m / df). Queries against a TF-IDF
	// index use raw counts (document frequencies are a corpus statistic).
	WeightingTFIDF = corpus.TFIDFWeighting
)

// ParseWeighting is the inverse of Weighting.String, for CLI flags and
// wire metadata.
func ParseWeighting(s string) (Weighting, error) {
	for w := WeightingCount; w <= WeightingTFIDF; w++ {
		if w.String() == s {
			return w, nil
		}
	}
	return 0, fmt.Errorf("retrieval: unknown weighting %q (want count, binary, log, or tfidf)", s)
}

// config collects the functional options of Build.
type config struct {
	rank            int // 0 = auto
	engine          Engine
	weighting       Weighting
	removeStopwords bool
	stemming        bool
	shards          int   // 0 = unsharded; >= 1 builds the sharded live index
	sealEvery       int   // 0 = shard package default
	cacheBytes      int64 // <= 0 = no query result cache
	autoCompact     *bool
	annList         int // 0 = no ANN tier; >= 1 trains IVF quantizers with this many cells
	annProbe        int // default probe budget; 0 = exhaustive unless a request overrides
	quantBeta       int // 0 = no quantized tier; >= 1 builds int8 shadows with this rerank over-fetch
}

func defaultConfig() config {
	return config{
		rank:            0,
		engine:          EngineAuto,
		weighting:       WeightingLog,
		removeStopwords: true,
		stemming:        true,
	}
}

// Option configures Build, BuildVSM, Open and OpenDir.
type Option func(*config)

// newConfig applies opts over the defaults.
func newConfig(opts []Option) config {
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// WithRank sets the LSI rank k. The default (or any k <= 0) picks
// min(numTerms, numDocs)/4 clamped to [2, 100] — small corpora keep a
// low-dimensional latent space, large corpora cap at the paper's typical
// few-hundred scale. k is further clamped to the matrix rank bound.
// BuildVSM ignores rank.
func WithRank(k int) Option { return func(c *config) { c.rank = k } }

// WithEngine selects the SVD engine of an LSI build (default
// EngineAuto).
func WithEngine(e Engine) Option { return func(c *config) { c.engine = e } }

// WithWeighting selects the term weighting of the term-document matrix
// (default WeightingLog).
func WithWeighting(w Weighting) Option { return func(c *config) { c.weighting = w } }

// WithStopwordRemoval toggles stopword removal in the text pipeline
// (default true). The setting is bundled into the index so queries are
// preprocessed identically.
func WithStopwordRemoval(on bool) Option { return func(c *config) { c.removeStopwords = on } }

// WithStemming toggles Porter stemming in the text pipeline (default
// true). The setting is bundled into the index so queries are
// preprocessed identically.
func WithStemming(on bool) Option { return func(c *config) { c.stemming = on } }

// WithShards builds a sharded live index over n shards instead of the
// single immutable index: documents are partitioned round-robin, each
// shard gets an independent per-shard decomposition, the index accepts
// live appends via Add (folded in without a rebuild, merged into tiers by
// a background compactor), and searches fan out across every shard's
// segments with deterministic merged results. A 1-shard index returns
// bitwise-identical rankings to the unsharded build of the same corpus.
// BuildVSM rejects it; n <= 0 keeps the unsharded index.
// Sharded indexes persist to a directory (SaveDir/OpenDir) rather than
// a single stream.
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// WithSealEvery sets how many folded-in documents a shard's live segment
// absorbs before it is sealed and handed to the compactor (default 256;
// only meaningful with WithShards).
func WithSealEvery(n int) Option { return func(c *config) { c.sealEvery = n } }

// WithAutoCompact toggles the background compactor of a sharded index
// (default on; only meaningful with WithShards). With it off, sealed
// segments keep serving their fold-in representations until Compact is
// called explicitly — useful for tests that need a fixed segment layout.
func WithAutoCompact(on bool) Option { return func(c *config) { c.autoCompact = &on } }

// WithANN enables the IVF ANN tier of an LSI index: a k-means coarse
// quantizer with nlist cells (clamped to the corpus size) is trained
// over the rank-k document vectors, and searches score only the nprobe
// cells whose centroids best match the projected query instead of
// scanning every document — sublinear candidate work on the
// topic-clustered corpora the paper's model produces. nprobe is the
// default probe budget: 0 keeps the default search exhaustive while
// still training quantizers (probe only via Query's per-request NProbe
// override), and nprobe >= nlist is bitwise-identical to the exhaustive
// scan. On sharded indexes every compacted segment carries its own
// quantizer, retrained by the compactor at each merge; live fold-in
// segments always scan exhaustively, so freshly added documents are
// never missed. Training is deterministic (one fixed seed); results are
// deterministic for any worker count. BuildVSM rejects it; nlist <= 0
// disables the tier.
func WithANN(nlist, nprobe int) Option {
	return func(c *config) { c.annList = nlist; c.annProbe = nprobe }
}

// WithQuantized enables the quantized scoring tier of an LSI index:
// an int8 shadow of the rank-k document matrix (one symmetric scale per
// document, ~4× smaller than the float32 matrix) is built alongside the
// decomposition, and searches run two-stage — the bandwidth-optimal int8
// scan selects topN·beta candidates, then an exact float64 rerank
// restores the final (score desc, doc asc) order. Every returned score
// is a true float64 cosine; only membership deep in the list can differ
// from the exhaustive scan, and beta large enough to cover the corpus is
// bitwise-identical to it. On sharded indexes every compacted segment
// carries its own shadow (persisted as a quant-*.qnt sidecar, rebuilt by
// the compactor at each merge); live fold-in segments always score in
// float, so freshly added documents are never subject to quantization
// error. Quantization is seedless and deterministic: the shadow is a
// pure function of the document matrix, and results are deterministic
// for any worker count. Composes with WithANN — the IVF probe narrows
// the candidate set, the int8 kernels score it, exact float rescoring
// ranks it. BuildVSM rejects it; beta <= 0 disables the tier.
// A Query with NProbe 0 remains the per-request fully exact escape
// hatch.
func WithQuantized(beta int) Option {
	return func(c *config) { c.quantBeta = beta }
}

// WithQueryCache attaches a query result cache bounded at maxBytes
// (estimated footprint; <= 0, the default, disables caching). The cache
// is keyed by (sparse query, topN, index epoch) and holds the ranked
// document numbers and scores, the IDs looked up at each lookup:
// repeated or concurrent identical queries are answered from memory —
// concurrent ones coalesce onto a single backend search — while the epoch key
// keeps live indexes exact: every Add batch and every compaction
// advances the epoch, instantly retiring all previously cached results,
// so a hit can never serve pre-Add or pre-Compact rankings. Immutable
// indexes cache forever. Applies to Build, Open, and OpenDir (BuildVSM
// rejects a positive budget); cache counters surface in Stats and, via
// the HTTP API, in /v1/stats and the Cache-Status response header.
func WithQueryCache(maxBytes int64) Option { return func(c *config) { c.cacheBytes = maxBytes } }

func autoRank(numTerms, numDocs int) int {
	k := min(numTerms, numDocs) / 4
	if k < 2 {
		k = 2
	}
	if k > 100 {
		k = 100
	}
	return k
}
