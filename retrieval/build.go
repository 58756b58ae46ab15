package retrieval

import (
	"context"
	"fmt"
	"sync"

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

	// seg is the unsharded index: one frozen segment whose Global table
	// is the identity, carrying the tier sidecars WithANN / WithQuantized
	// asked for. A sharded index keeps its segments in retrieval/shard
	// instead; either way a query is segment.Search over segments().
	seg     *segment.Segment
	sharded *shard.Index // non-nil iff built with WithShards

	// Tier configuration (WithANN, WithQuantized): annProbe and quantBeta
	// are the default budgets of Search (0 = that tier is off); tiers
	// accumulates what every search did, for Stats and /metrics.
	annList   int
	annProbe  int
	quantBeta int
	tiers     segment.Counters

	qc *queryCache // non-nil iff built/opened with WithQueryCache

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
		if err := ix.buildSharded(a, rank, engine, cfg); err != nil {
			return nil, err
		}
	} else {
		li, err := lsi.Build(a, rank, lsi.Options{Engine: engine, Seed: cfg.seed})
		if err != nil {
			return nil, fmt.Errorf("retrieval: building LSI index: %w", err)
		}
		ix.setLSI(li)
		if err := ix.attachTiers(cfg); err != nil {
			return nil, err
		}
	}
	ix.initCache(cfg.cacheBytes)
	return ix, nil
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
func (ix *Index) NumDocs() int {
	if ix.sharded != nil {
		return ix.sharded.NumDocs()
	}
	return ix.seg.Len()
}

// NumTerms returns the vocabulary size the index was built over.
func (ix *Index) NumTerms() int {
	if ix.sharded != nil {
		return ix.sharded.NumTerms()
	}
	return ix.seg.Ix.NumTerms()
}

// Rank returns the retained LSI rank (the per-shard rank for sharded
// indexes).
func (ix *Index) Rank() int {
	if ix.sharded != nil {
		return ix.sharded.Rank()
	}
	return ix.seg.Ix.K()
}

// Stats describes the index, including a memory estimate that covers
// both the numeric payload and the text layer.
func (ix *Index) Stats() Stats {
	st := ix.stats("lsi")
	st.NumDocs, st.NumTerms, st.Rank = ix.NumDocs(), ix.NumTerms(), ix.Rank()
	var tiers segment.Tiers
	if ix.sharded != nil {
		ss := ix.sharded.Stats()
		tiers = ss.Tiers
		st.Sharded = true
		st.Epoch = ix.sharded.Epoch()
		st.Generation = ss.Generation
		st.Shards = ss.Shards
		st.Segments = ss.Segments
		st.LiveSegments = ss.Live
		st.SealedPending = ss.SealedPending
		st.CompactedSegments = ss.Compacted
		st.FoldedDocs = ss.FoldedDocs
		st.Compactions = ss.Compactions
		st.CompactionFailures = ss.CompactionFailures
		st.LastCompactionError = ss.LastCompactionError
		st.MemoryBytes += ss.MemoryBytes
		st.MappedBytes = ss.MappedBytes
		// shard.Index.Ready, read off the same snapshot as the counts above.
		st.Ready = ss.SealedPending == 0 && !ss.Compacting
	} else {
		tiers.Add(ix.seg)
		mem, mapped := ix.seg.MemoryBytes(true)
		st.MemoryBytes, st.MappedBytes = st.MemoryBytes+mem, mapped
	}
	if cs, ok := ix.CacheStats(); ok {
		st.Cache = &cs
		st.MemoryBytes += cs.Bytes
	}
	if as, ok := ix.annStats(tiers); ok {
		st.ANN = &as
	}
	if qs, ok := ix.quantStats(tiers); ok {
		st.Quant = &qs
	}
	return st
}

// setLSI installs li as the unsharded index: one frozen segment whose
// local rows are the global document numbers.
func (ix *Index) setLSI(li *lsi.Index) {
	global := make([]int, li.NumDocs())
	for j := range global {
		global[j] = j
	}
	ix.seg = &segment.Segment{Ix: li, Global: global, Compacted: true}
}

// segments appends the segment set a query runs over to dst: the one
// frozen segment, or the sharded index's current snapshot. Callers pass
// a small stack buffer so the usual handful of segments costs no
// allocation.
func (ix *Index) segments(dst []*segment.Segment) []*segment.Segment {
	if ix.sharded != nil {
		return ix.sharded.Segments(dst)
	}
	return append(dst, ix.seg)
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
	if ix.sharded != nil {
		if id := ix.sharded.ExternalID(doc); id != "" {
			return id
		}
	}
	return ix.docID(doc) // a sharded index keeps no docIDs: "doc-<n>"
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
		batchEpoch = ix.qc.epoch()
		cacheKeys = make([][]byte, 0, len(qterms))
		kept := 0
		for i := range qterms {
			key := cache.AppendQueryKey(nil, batchEpoch, topN, qterms[i], qweights[i])
			if v, ok := ix.qc.c.Get(key); ok {
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
		store := ix.qc != nil && ix.qc.epoch() == batchEpoch
		for i, res := range chunk {
			out[qpos[lo+i]] = res
			if store {
				// The caller owns res; cache a private copy under the
				// key encoded at probe time.
				ix.qc.c.Put(cacheKeys[lo+i], copyResults(res))
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
