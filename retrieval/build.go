package retrieval

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/idtable"
	"repro/internal/lsi"
	"repro/internal/par"
	"repro/internal/segment"
	"repro/retrieval/cache"
	"repro/retrieval/shard"
	"repro/retrieval/wal"
)

// Index is the concrete Retriever produced by Build and Load: an LSI
// latent space behind the text layer — vocabulary, weighting, pipeline
// flags, document IDs — so text queries work end to end, including on
// indexes loaded from disk.
type Index struct {
	textLayer

	// sharded holds the segments and the external IDs: a live index
	// when built with WithShards or opened from a directory, otherwise a
	// frozen one-shard index (shard.Frozen). Either way a query is
	// segment.Search over its published segments.
	sharded *shard.Index

	// Tier configuration (WithANN, WithQuantized): annProbe and quantBeta
	// are the default budgets of Search (0 = that tier is off); tiers
	// accumulates what every search did, for Stats and /metrics.
	annList   int
	annProbe  int
	quantBeta int
	tiers     segment.Counters

	qc *cache.Cache[[]Result] // non-nil iff built/opened with WithQueryCache

	// wlog is the attached write-ahead log (AttachWAL); nil means Adds
	// are not logged. walMu serializes logged Adds and checkpoints so
	// logged positions mirror apply order exactly.
	wlog  *wal.Log
	walMu sync.Mutex
}

var _ Retriever = (*Index)(nil)

// Build indexes a corpus of documents and returns the Retriever for it.
// The zero-option call builds a log-weighted LSI index at an
// automatically chosen rank with stopword removal and stemming on; see
// the With* options for every knob. It returns ErrEmptyCorpus when no
// documents are given or preprocessing leaves an empty vocabulary.
func Build(docs []Document, opts ...Option) (*Index, error) {
	cfg := newConfig(opts)
	text, a, err := buildText(docs, cfg)
	if err != nil {
		return nil, err
	}
	engine, err := cfg.engine.toLSI()
	if err != nil {
		return nil, err
	}
	rank := cfg.rank
	if rank <= 0 {
		rank = autoRank(a.Dims())
	}
	ix := &Index{textLayer: text}
	if cfg.shards > 0 {
		err = ix.buildSharded(a, rank, engine, cfg)
	} else {
		var li *lsi.Index
		if li, err = lsi.Build(a, rank, lsi.Options{Engine: engine, Seed: cfg.seed}); err != nil {
			return nil, fmt.Errorf("retrieval: building LSI index: %w", err)
		}
		err = ix.freeze(li, cfg)
	}
	if err != nil {
		return nil, err
	}
	ix.initCache(cfg.cacheBytes)
	return ix, nil
}

// freeze makes li, a decomposition of the text layer's documents, the
// index's frozen one-shard index. It carries the sidecars cfg asks for
// at any size, with the quantizer trained from the seed a one-shard
// build would use, and ANNStats reports the cell count after clamping.
func (ix *Index) freeze(li *lsi.Index, cfg config) error {
	sx, err := shard.Frozen(li, ix.docIDs, segment.TierConfig{NList: cfg.annList, Seed: cfg.seed, Quantize: cfg.quantBeta > 0})
	if err != nil {
		return fmt.Errorf("retrieval: %w", err)
	}
	ix.setShards(sx, cfg)
	if seg := sx.Segments(nil)[0]; seg.Ann != nil {
		ix.annList = seg.Ann.NList()
	}
	return nil
}

// setShards installs sx as the index's segments with cfg's tier budgets.
// sx owns the external IDs from here on.
func (ix *Index) setShards(sx *shard.Index, cfg config) {
	ix.sharded, ix.docIDs = sx, idtable.Table{}
	ix.annList, ix.annProbe, ix.quantBeta = cfg.annList, cfg.annProbe, cfg.quantBeta
}

// BuildTexts is Build for bare strings; document IDs default to "doc-<n>".
func BuildTexts(texts []string, opts ...Option) (*Index, error) {
	docs := make([]Document, len(texts))
	for i, t := range texts {
		docs[i] = Document{Text: t}
	}
	return Build(docs, opts...)
}

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int { return ix.sharded.NumDocs() }

// NumTerms returns the vocabulary size the index was built over.
func (ix *Index) NumTerms() int { return ix.sharded.NumTerms() }

// Rank returns the retained LSI rank (the per-shard rank for sharded
// indexes).
func (ix *Index) Rank() int { return ix.sharded.Rank() }

// Stats describes the index, including a memory estimate that covers
// both the numeric payload and the text layer. It is one snapshot of
// everything the serving layer reports: /v1/stats, /readyz, the ingest
// debt gate and every /metrics series read it.
func (ix *Index) Stats() Stats {
	st := ix.stats("lsi")
	st.NumDocs, st.NumTerms, st.Rank = ix.NumDocs(), ix.NumTerms(), ix.Rank()
	ss := ix.sharded.Stats()
	st.Epoch, st.Generation = ix.sharded.Epoch(), ss.Generation
	st.MemoryBytes += ss.MemoryBytes
	st.MappedBytes = ss.MappedBytes
	st.Ready = ss.Ready() // off the same snapshot as the counts below
	if ix.Sharded() {
		st.Sharded = true
		st.Shards = ss.Shards
		st.Segments = ss.Segments
		st.LiveSegments = ss.Live
		st.SealedPending = ss.SealedPending
		st.CompactedSegments = ss.Compacted
		st.FoldedDocs = ss.FoldedDocs
		st.Compactions = ss.Compactions
		st.CompactionFailures = ss.CompactionFailures
		st.LastCompactionError = ss.LastCompactionError
		st.Live = &LiveStats{
			DocsIngested:     ix.sharded.DocsIngested(),
			LastMutation:     ix.sharded.LastMutation(),
			Compacting:       ss.Compacting,
			SidecarsDegraded: ix.sharded.SidecarsDegraded(),
			PerShard:         ss.PerShard,
		}
	}
	if ix.qc != nil {
		st.Cache = &QueryCacheStats{Stats: ix.qc.Stats(), Epoch: st.Epoch}
		st.MemoryBytes += st.Cache.Bytes
	}
	st.ANN, st.Quant = ix.annStats(ss.Tiers), ix.quantStats(ss.Tiers)
	return st
}

// segments appends the segment set a query runs over to dst: the
// shard index's current snapshot. Callers pass a small stack buffer so
// the usual handful of segments costs no allocation.
func (ix *Index) segments(dst []*segment.Segment) []*segment.Segment {
	return ix.sharded.Segments(dst)
}

// DocID returns the external identifier of document doc (build order).
func (ix *Index) DocID(doc int) string {
	if id := ix.sharded.ExternalID(doc); id != "" {
		return id
	}
	return ix.docID(doc) // out of range: "doc-<n>"
}

// search is the one query path behind Query, Search and SearchBatch:
// text or vector, default or per-request budget, single or batch, sharded
// or not. A query is segment.Search over the index's segment set (see
// DESIGN.md "The search path"), its work record folded into the tier
// counters. q must be validated (terms ascending and in range, or a
// vector of NumTerms entries).
func (ix *Index) search(q segment.Query, topN int, opts segment.ProbeOptions) []Result {
	var buf [16]*segment.Segment
	ms, st := segment.Search(ix.segments(buf[:0]), q, topN, opts)
	ix.tiers.Add(st)
	out := make([]Result, len(ms))
	for i, m := range ms {
		out[i] = Result{Doc: m.Doc, ID: ix.DocID(m.Doc), Score: m.Score}
	}
	return out
}

// probeOpts is the tier routing of the default Search: the configured
// ANN probe budget plus the configured rerank over-fetch factor.
func (ix *Index) probeOpts() segment.ProbeOptions {
	return segment.ProbeOptions{NProbe: ix.annProbe, Beta: ix.quantBeta}
}

// Search preprocesses the query with the index's pipeline, folds it into
// the latent space, and returns the topN documents by cosine similarity
// (all documents if topN <= 0). With WithQueryCache, repeated queries
// are answered from the epoch-keyed result cache (Query reports the
// per-lookup disposition); results are identical either way. It returns
// ErrNoQueryTerms if no query token survives preprocessing and
// vocabulary lookup.
//
// Cancellation is honored at query boundaries: ctx is checked before the
// search and again after it, so work that outlives its deadline reports
// the deadline error rather than stale results — but an in-flight
// backend scan is not interrupted mid-kernel.
func (ix *Index) Search(ctx context.Context, query string, topN int) ([]Result, error) {
	q, err := ix.textQuery(ctx, query)
	if err != nil {
		return nil, err
	}
	res, _ := ix.searchStatus(q, topN)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// Query implements Retriever. A single text at the configured budget
// runs Search's cached path and reports its cache disposition; several
// texts run SearchBatch's path. A per-request budget bypasses the cache,
// whose keys assume the configured one: NProbe > 0 probes that many
// cells per quantizer (clamped to nlist) and keeps the configured
// quantized rerank, and 0 is the fully exact scan. Indexes without an
// ANN tier serve every budget through whatever tiers they do have. A
// vector whose length is not NumTerms fails with ErrVectorLength, one
// with an entry beyond 1e100 in magnitude with ErrVectorRange.
func (ix *Index) Query(ctx context.Context, q Query) (Answer, error) {
	opts := ix.probeOpts()
	if q.NProbe != nil {
		opts = ix.budget(*q.NProbe)
	}
	if q.Vector != nil {
		res, err := ix.searchVector(ctx, q.Vector, q.TopN, opts)
		return Answer{Results: [][]Result{res}}, err
	}
	if len(q.Texts) == 1 && q.NProbe == nil {
		sq, err := ix.textQuery(ctx, q.Texts[0])
		if errors.Is(err, ErrNoQueryTerms) {
			return Answer{Results: [][]Result{{}}}, nil
		}
		if err != nil {
			return Answer{}, err
		}
		res, st := ix.searchStatus(sq, q.TopN)
		if err := ctx.Err(); err != nil {
			return Answer{Cache: st}, err
		}
		return Answer{Results: [][]Result{res}, Cache: st}, nil
	}
	res, err := ix.searchBatch(ctx, q.Texts, q.TopN, opts, q.NProbe == nil)
	return Answer{Results: res}, err
}

// searchVector ranks documents against a raw term-space query vector,
// failing with ErrVectorLength instead of panicking like the internal
// fast-paths when its length is not NumTerms, and with ErrVectorRange
// on an entry whose square could overflow a cosine.
func (ix *Index) searchVector(ctx context.Context, q []float64, topN int, opts segment.ProbeOptions) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(q) != ix.NumTerms() {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVectorLength, len(q), ix.NumTerms())
	}
	for _, x := range q {
		if !(math.Abs(x) <= 1e100) {
			return nil, fmt.Errorf("%w: got %g", ErrVectorRange, x)
		}
	}
	res := ix.search(segment.Query{Vec: q}, topN, opts)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// batchChunk bounds how many queries run between context checks in
// SearchBatch: small enough that cancellation is honored promptly, large
// enough that the workers stay saturated.
const batchChunk = 64

// SearchBatch runs every query through the same path as Search, fanning
// whole queries across CPUs and checking ctx between chunks of
// batchChunk queries. Unlike Search, a query with no in-vocabulary terms
// yields an empty (non-nil) result slice rather than failing the whole
// batch; result order matches query order.
func (ix *Index) SearchBatch(ctx context.Context, queries []string, topN int) ([][]Result, error) {
	return ix.searchBatch(ctx, queries, topN, ix.probeOpts(), true)
}

// searchBatch is SearchBatch at any budget; cached says the budget is the
// configured one, the only one the query cache serves.
func (ix *Index) searchBatch(ctx context.Context, queries []string, topN int, opts segment.ProbeOptions, cached bool) ([][]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ix.vocab == nil {
		return nil, ErrNoVocabulary
	}
	out := make([][]Result, len(queries))
	qterms := make([][]int, 0, len(queries))
	qweights := make([][]float64, 0, len(queries))
	qpos := make([]int, 0, len(queries)) // query index of each sparse vector
	for i, query := range queries {
		if terms, weights, known := ix.querySparse(query); known > 0 {
			qterms = append(qterms, terms)
			qweights = append(qweights, weights)
			qpos = append(qpos, i)
		} else {
			out[i] = []Result{}
		}
	}
	// With a query cache, answer what we can from it and narrow the
	// batch to the misses; computed misses are stored after their chunk
	// if the epoch stayed stable (the same publish-then-bump validity
	// protocol as the single-query path).
	var cacheKeys [][]byte
	var batchEpoch uint64
	if cached && ix.qc != nil {
		batchEpoch = ix.sharded.Epoch()
		cacheKeys = make([][]byte, 0, len(qterms))
		kept := 0
		for i := range qterms {
			key := cache.AppendQueryKey(nil, batchEpoch, topN, qterms[i], qweights[i])
			if v, ok := ix.qc.Get(key); ok {
				out[qpos[i]] = copyResults(v)
				continue
			}
			qterms[kept], qweights[kept], qpos[kept] = qterms[i], qweights[i], qpos[i]
			cacheKeys = append(cacheKeys, key)
			kept++
		}
		qterms, qweights, qpos = qterms[:kept], qweights[:kept], qpos[:kept]
	}
	// Whole queries fan out across par workers (each may fan out again
	// inside its scan; nesting is safe and never changes results).
	grain := par.GrainFor((1 + ix.NumDocs()) * max(1, ix.Rank()))
	for lo := 0; lo < len(qterms); lo += batchChunk {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hi := min(lo+batchChunk, len(qterms))
		chunk := make([][]Result, hi-lo)
		par.For(len(chunk), grain, func(a, b int) {
			for i := a; i < b; i++ {
				chunk[i] = ix.search(segment.Query{Terms: qterms[lo+i], Weights: qweights[lo+i]}, topN, opts)
			}
		})
		store := cached && ix.qc != nil && ix.sharded.Epoch() == batchEpoch
		for i, res := range chunk {
			out[qpos[lo+i]] = res
			if store {
				// The caller owns res; cache a private copy under the
				// key encoded at probe time.
				ix.qc.Put(cacheKeys[lo+i], copyResults(res))
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
