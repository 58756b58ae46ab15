package retrieval

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/lsi"
	"repro/internal/par"
	"repro/internal/segment"
	"repro/internal/sparse"
	"repro/internal/topk"
	"repro/internal/vsm"
	"repro/retrieval/cache"
	"repro/retrieval/shard"
	"repro/retrieval/wal"
)

// Index is the concrete Retriever produced by Build and Load. It bundles
// the backend (LSI latent space or VSM inverted index) with the text
// layer — vocabulary, weighting, pipeline flags, document IDs — so text
// queries work end to end, including on indexes loaded from disk.
type Index struct {
	backend Backend

	// seg is the unsharded LSI index: one frozen segment whose Global
	// table is the identity, carrying the tier sidecars WithANN /
	// WithQuantized asked for. A sharded index keeps its segments in
	// retrieval/shard instead; either way a query is segment.Search over
	// segments().
	seg      *segment.Segment
	vsmIndex *vsm.Index
	matrix   *sparse.CSR  // term-document matrix, retained for VSM persistence
	sharded  *shard.Index // non-nil iff built with WithShards

	vocab           *ir.Vocabulary // nil only for v1 files loaded without text config
	weighting       Weighting
	removeStopwords bool
	stemming        bool
	docIDs          []string

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
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("%w: no documents", ErrEmptyCorpus)
	}
	if err := cfg.checkTiers(cfg.backend); err != nil {
		return nil, err
	}
	if cfg.workers > 0 {
		par.SetMaxProcs(cfg.workers)
	}
	cw, err := cfg.weighting.toCorpus()
	if err != nil {
		return nil, err
	}

	texts := make([]string, len(docs))
	ids := make([]string, len(docs))
	for i, d := range docs {
		texts[i] = d.Text
		ids[i] = d.ID
		if ids[i] == "" {
			ids[i] = fmt.Sprintf("doc-%d", i)
		}
	}
	pipe := &ir.Pipeline{
		RemoveStopwords: cfg.removeStopwords,
		Stemming:        cfg.stemming,
		Vocab:           ir.NewVocabulary(),
	}
	c := pipe.ProcessAll(texts)
	if c.NumTerms == 0 {
		return nil, fmt.Errorf("%w: every token was removed by preprocessing", ErrEmptyCorpus)
	}
	a := corpus.TermDocMatrix(c, cw)

	ix := &Index{
		backend:         cfg.backend,
		vocab:           pipe.Vocab,
		weighting:       cfg.weighting,
		removeStopwords: cfg.removeStopwords,
		stemming:        cfg.stemming,
		docIDs:          ids,
	}
	if cfg.shards > 0 {
		sx, err := buildSharded(ix, a, ids, c.NumTerms, len(c.Docs), cfg)
		if err != nil {
			return nil, err
		}
		sx.initCache(cfg.cacheBytes)
		return sx, nil
	}
	switch cfg.backend {
	case BackendLSI:
		engine, err := cfg.engine.toLSI()
		if err != nil {
			return nil, err
		}
		rank := cfg.rank
		if rank <= 0 {
			rank = autoRank(c.NumTerms, len(c.Docs))
		}
		li, err := lsi.Build(a, rank, lsi.Options{Engine: engine, Seed: cfg.seed})
		if err != nil {
			return nil, fmt.Errorf("retrieval: building LSI index: %w", err)
		}
		ix.setLSI(li)
		if err := ix.attachTiers(cfg); err != nil {
			return nil, err
		}
	case BackendVSM:
		ix.vsmIndex = vsm.NewFromMatrix(a)
		ix.matrix = a
	default:
		return nil, fmt.Errorf("retrieval: unknown backend %d", int(cfg.backend))
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
	switch {
	case ix.sharded != nil:
		return ix.sharded.NumDocs()
	case ix.backend == BackendVSM:
		return ix.vsmIndex.NumDocs()
	}
	return ix.seg.Len()
}

// NumTerms returns the vocabulary size the index was built over.
func (ix *Index) NumTerms() int {
	switch {
	case ix.sharded != nil:
		return ix.sharded.NumTerms()
	case ix.backend == BackendVSM:
		return ix.vsmIndex.NumTerms()
	}
	return ix.seg.Ix.NumTerms()
}

// Rank returns the retained LSI rank (0 for the VSM backend; the
// per-shard rank for sharded indexes).
func (ix *Index) Rank() int {
	switch {
	case ix.sharded != nil:
		return ix.sharded.Rank()
	case ix.backend == BackendVSM:
		return 0
	}
	return ix.seg.Ix.K()
}

// Stats describes the index, including a per-backend memory estimate
// that covers both the numeric payload and the text layer.
func (ix *Index) Stats() Stats {
	st := Stats{
		Backend:     ix.backend.String(),
		NumDocs:     ix.NumDocs(),
		NumTerms:    ix.NumTerms(),
		Rank:        ix.Rank(),
		Weighting:   ix.weighting.String(),
		TextQueries: ix.vocab != nil,
		Ready:       true,
	}
	if ix.vocab != nil {
		st.VocabSize = ix.vocab.Size()
		for _, term := range ix.vocab.Terms() {
			st.MemoryBytes += int64(len(term)) + 16
		}
	}
	for _, id := range ix.docIDs {
		st.MemoryBytes += int64(len(id)) + 16
	}
	var tiers segment.Tiers
	switch {
	case ix.sharded != nil:
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
	case ix.backend == BackendVSM:
		// Postings (doc, weight) pairs mirror the matrix nonzeros; the
		// matrix itself is retained for persistence.
		nnz := int64(ix.matrix.NNZ())
		n, m := ix.matrix.Dims()
		st.MemoryBytes += nnz*16 + int64(m)*8   // postings + norms
		st.MemoryBytes += nnz*16 + int64(n+1)*8 // retained CSR
	default:
		tiers.Add(ix.seg)
		st.MemoryBytes += ix.seg.MemoryBytes(true)
		st.MappedBytes = ix.seg.Ix.MappedBytes()
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
// frozen segment, or the sharded index's current snapshot (nothing for
// VSM, which has no latent space). Callers pass a small stack buffer so
// the usual handful of segments costs no allocation.
func (ix *Index) segments(dst []*segment.Segment) []*segment.Segment {
	switch {
	case ix.sharded != nil:
		return ix.sharded.Segments(dst)
	case ix.seg != nil:
		return append(dst, ix.seg)
	}
	return dst
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
		return fmt.Sprintf("doc-%d", doc)
	}
	if doc >= 0 && doc < len(ix.docIDs) {
		return ix.docIDs[doc]
	}
	return fmt.Sprintf("doc-%d", doc)
}

// querySparse turns query text into a sparse term-space vector — weights
// over the distinct in-vocabulary term IDs, sorted ascending — using the
// index's own pipeline, vocabulary, and weighting. It reports how many
// query tokens hit the vocabulary. The sparse form is what both backend
// hot paths consume: a text query never materializes a vocabulary-length
// vector, and the sorted order makes the backends' accumulation match
// the dense reference bitwise.
func (ix *Index) querySparse(query string) (terms []int, weights []float64, known int) {
	pipe := &ir.Pipeline{RemoveStopwords: ix.removeStopwords, Stemming: ix.stemming}
	counts := make(map[int]float64)
	for _, term := range pipe.Terms(query) {
		if id, ok := ix.vocab.Lookup(term); ok {
			counts[id]++
			known++
		}
	}
	if known == 0 {
		return nil, nil, 0
	}
	terms = make([]int, 0, len(counts))
	for id := range counts {
		terms = append(terms, id)
	}
	sort.Ints(terms)
	weights = make([]float64, len(terms))
	for i, id := range terms {
		switch ix.weighting {
		case WeightingBinary:
			weights[i] = 1
		case WeightingLog:
			weights[i] = 1 + math.Log(counts[id])
		default: // count; tf-idf queries use raw counts (df is a corpus statistic)
			weights[i] = counts[id]
		}
	}
	return terms, weights, known
}

// search is the one query path behind every public Search* method: text
// or vector, default or per-request budget, single or batch, sharded or
// not. An LSI query is segment.Search over the index's segment set (see
// DESIGN.md "The search path"), its work record folded into the tier
// counters; VSM, which has no latent space and no tiers, is the only
// other branch. q must be validated (terms ascending and in range, or a
// vector of NumTerms entries).
func (ix *Index) search(q segment.Query, topN int, opts segment.ProbeOptions) []Result {
	var ms []topk.Match
	switch {
	case ix.backend != BackendVSM:
		var buf [16]*segment.Segment
		var st segment.ProbeStats
		ms, st = segment.Search(ix.segments(buf[:0]), q, topN, opts)
		ix.tiers.Add(st)
	case q.Vec != nil:
		ms = ix.vsmIndex.Search(q.Vec, topN)
	default:
		ms = ix.vsmIndex.SearchSparse(q.Terms, q.Weights, topN)
	}
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

// textQuery preprocesses query text into the validated sparse query
// value, failing the way every text entry point fails: on a done
// context, an index without a vocabulary, or a query none of whose
// terms the vocabulary knows.
func (ix *Index) textQuery(ctx context.Context, query string) (segment.Query, error) {
	if err := ctx.Err(); err != nil {
		return segment.Query{}, err
	}
	if ix.vocab == nil {
		return segment.Query{}, ErrNoVocabulary
	}
	terms, weights, known := ix.querySparse(query)
	if known == 0 {
		return segment.Query{}, fmt.Errorf("%w: %q", ErrNoQueryTerms, query)
	}
	return segment.Query{Terms: terms, Weights: weights}, nil
}

// Search implements Retriever: it preprocesses the query with the
// index's pipeline, folds it into the backend's space, and returns the
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
