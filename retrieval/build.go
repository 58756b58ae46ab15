package retrieval

import (
	"context"
	"fmt"
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
// both the numeric payload and the text layer.
func (ix *Index) Stats() Stats {
	st := ix.stats("lsi")
	st.NumDocs, st.NumTerms, st.Rank = ix.NumDocs(), ix.NumTerms(), ix.Rank()
	ss := ix.sharded.Stats()
	st.Epoch, st.Generation = ix.sharded.Epoch(), ss.Generation
	st.MemoryBytes += ss.MemoryBytes
	st.MappedBytes = ss.MappedBytes
	// shard.Index.Ready, read off the same snapshot as the counts below.
	st.Ready = ss.SealedPending == 0 && !ss.Compacting
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
	}
	if cs, ok := ix.CacheStats(); ok {
		st.Cache = &cs
		st.MemoryBytes += cs.Bytes
	}
	if as, ok := ix.annStats(ss.Tiers); ok {
		st.ANN = &as
	}
	if qs, ok := ix.quantStats(ss.Tiers); ok {
		st.Quant = &qs
	}
	return st
}

// segments appends the segment set a query runs over to dst: the
// shard index's current snapshot. Callers pass a small stack buffer so
// the usual handful of segments costs no allocation.
func (ix *Index) segments(dst []*segment.Segment) []*segment.Segment {
	return ix.sharded.Segments(dst)
}

// tierCoverage walks the segment set once for the tiers' topology. It
// touches neither the ID table nor the heap, so /metrics can call it on
// every scrape.
func (ix *Index) tierCoverage() (t segment.Tiers) {
	var buf [16]*segment.Segment
	for _, s := range ix.segments(buf[:0]) {
		t.Add(s)
	}
	return t
}

// DocID returns the external identifier of document doc (build order).
func (ix *Index) DocID(doc int) string {
	if id := ix.sharded.ExternalID(doc); id != "" {
		return id
	}
	return ix.docID(doc) // out of range: "doc-<n>"
}

// search is the one query path behind every public Search* method: text
// or vector, default or per-request budget, single or batch, sharded or
// not. A query is segment.Search over the index's segment set (see
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

// Search implements Retriever: it preprocesses the query with the
// index's pipeline, folds it into the latent space, and returns the
// topN documents by cosine similarity (all documents if topN <= 0).
// With WithQueryCache, repeated queries are answered from the epoch-
// keyed result cache (see SearchStatus for the per-lookup disposition);
// results are identical either way.
//
// Cancellation is honored at query boundaries: ctx is checked before the
// search and again after it, so work that outlives its deadline reports
// the deadline error rather than stale results — but an in-flight
// backend scan is not interrupted mid-kernel.
func (ix *Index) Search(ctx context.Context, query string, topN int) ([]Result, error) {
	res, _, err := ix.SearchStatus(ctx, query, topN)
	return res, err
}

// SearchVector ranks documents against a raw term-space query vector (for
// callers that build vectors themselves, e.g. from corpus-model
// documents). The vector length must equal NumTerms; a mismatch returns
// an error wrapping ErrVectorLength instead of panicking like the
// internal fast-paths.
func (ix *Index) SearchVector(ctx context.Context, q []float64, topN int) ([]Result, error) {
	return ix.searchVector(ctx, q, topN, ix.probeOpts())
}

// searchVector is the shared body of SearchVector and SearchVectorProbe.
func (ix *Index) searchVector(ctx context.Context, q []float64, topN int, opts segment.ProbeOptions) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(q) != ix.NumTerms() {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVectorLength, len(q), ix.NumTerms())
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

// SearchBatch implements Retriever: it runs every query through the same
// path as Search, fanning whole queries across CPUs and checking ctx
// between chunks of batchChunk queries.
// Queries with no in-vocabulary terms yield empty (non-nil) result
// slices; result order matches query order.
func (ix *Index) SearchBatch(ctx context.Context, queries []string, topN int) ([][]Result, error) {
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
	if ix.qc != nil {
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
	opts := ix.probeOpts()
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
		store := ix.qc != nil && ix.sharded.Epoch() == batchEpoch
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
