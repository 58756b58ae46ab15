// Package retrieval is the public face of the repository: one stable API
// for building, querying, persisting, and serving the retrieval systems
// the paper compares — rank-k latent semantic indexing (LSI) and the
// conventional vector-space model (VSM) baseline.
//
// The paper's argument is comparative (LSI rankings versus plain
// vector-space rankings over the same corpus), so both systems implement
// the same Retriever interface: Build returns the LSI serving Index,
// BuildVSM the read-only baseline beside it, over the same text layer:
//
//	ret, err := retrieval.BuildTexts(texts, retrieval.WithRank(3))
//	results, err := ret.Search(ctx, "car engine repair", 10)
//	answer, err := ret.Query(ctx, retrieval.Query{Texts: batch, TopN: 10})
//	baseline, err := retrieval.BuildVSM(docs)
//
// Indexes are text-in/text-out: Build bundles the tokenize → stopword →
// stem pipeline, the vocabulary, and the term weighting into the index,
// so queries are plain strings and results carry stable document IDs.
// Save writes a self-contained index (wire format v4: raw arrays — the
// document matrix in float32 — plus the text layer) that answers text
// queries after Load without the corpus that built it; v3 files and the
// gob files of wire versions 1 and 2 still load (see Load for attaching a
// text layer to a v1 file).
//
// Every query path returns errors — malformed input never panics through
// the public API, and batch calls honor context cancellation. The
// internal packages keep their panic fast-paths; this package validates
// at the boundary.
//
// cmd/lsiserve exposes the same API over HTTP/JSON via the
// retrieval/httpapi handler; cmd/lsiquery drives it from the terminal.
package retrieval

import (
	"context"
	"errors"

	"repro/retrieval/cache"
)

// Retriever is the query contract shared by every backend: one search
// call, the document count, and one observability snapshot. Query
// preprocesses texts with the pipeline the index was built with, honors
// ctx cancellation, and returns ranked results best-first with ties
// broken by document position for determinism.
type Retriever interface {
	// Query answers one search request (see Query for its shapes). A
	// backend that cannot serve the shape returns an error wrapping
	// ErrUnsupported.
	Query(ctx context.Context, q Query) (Answer, error)
	// NumDocs returns the number of indexed documents.
	NumDocs() int
	// Stats describes the index (backend, dimensions, rank, weighting)
	// and carries every counter the serving layer exports.
	Stats() Stats
}

// Query is one search request: texts or a raw vector, the result count,
// and the probe budget. Set exactly one of Texts and Vector.
type Query struct {
	// Texts are raw query texts; the answer holds one result list per
	// text, and a text with no in-vocabulary term gets an empty list.
	Texts []string
	// Vector, when non-nil, is a raw term-space query vector of NumTerms
	// entries, answered with one result list (a length mismatch is
	// ErrVectorLength).
	Vector []float64
	// TopN is the result count per list (all documents if <= 0).
	TopN int
	// NProbe overrides the ANN tier's probe budget for this request: nil
	// keeps the configured budget, 0 forces the exhaustive scan, and
	// n > 0 probes n cells per quantizer (see WithANN). Only the
	// configured budget reads and fills the query cache.
	NProbe *int
}

// Answer is a backend's reply to a Query.
type Answer struct {
	// Results holds one ranked list per query text, or one for a vector.
	Results [][]Result
	// Cache is the query cache's disposition of a single-text lookup at
	// the configured budget; cache.StatusBypass for every other shape
	// and on uncached backends.
	Cache cache.Status
	// Partial reports a fan-out answered from a degraded quorum: at
	// least one shard did not answer, and the lists merge those that
	// did.
	Partial bool
}

// Result is one ranked retrieval hit.
type Result struct {
	// Doc is the document's position in build order.
	Doc int `json:"doc"`
	// ID is the document's external identifier (from Document.ID, or a
	// generated "doc-<n>" default).
	ID string `json:"id"`
	// Score is the cosine similarity between query and document — in the
	// rank-k latent space for the LSI backend, in raw term space for VSM.
	//
	// Scores agree across the query paths of one index to within 1e-12:
	// the sparse text hot path, the dense vector path, and batch
	// calls agree on a document's score to at least that tolerance (hot-
	// path kernel changes may move the last ulps), and rankings —
	// including the document-ID tie-break — are identical. Across the
	// v3 → v4 file format (float32 LSI document vectors) a rebuilt or
	// reloaded index's scores move by float32 rounding, at most 1e-6.
	Score float64 `json:"score"`
}

// Document is one input to Build: an external identifier and raw text.
type Document struct {
	// ID is the stable identifier returned in Results; empty means a
	// generated "doc-<n>" default.
	ID string
	// Text is the document's raw text, preprocessed by the index's
	// pipeline (tokenize, optional stopword removal, optional stemming).
	Text string
}

// Stats describes an index.
type Stats struct {
	// Backend is "lsi" or "vsm".
	Backend string `json:"backend"`
	// Sharded reports the sharded live index (WithShards); the Shard*
	// fields below are only populated when it is set.
	Sharded bool `json:"sharded,omitempty"`
	// NumDocs and NumTerms are the index dimensions.
	NumDocs  int `json:"numDocs"`
	NumTerms int `json:"numTerms"`
	// Rank is the retained LSI rank k (0 for the VSM backend, which has
	// no latent space; the per-shard rank for sharded indexes).
	Rank int `json:"rank,omitempty"`
	// Weighting names the term-weighting function of the term-document
	// matrix.
	Weighting string `json:"weighting"`
	// TextQueries reports whether the index carries a vocabulary and can
	// answer text queries (false only for v1-format files loaded without
	// WithTextConfig).
	TextQueries bool `json:"textQueries"`
	// VocabSize is the number of terms in the bundled vocabulary (0 when
	// the index has none; otherwise equal to NumTerms).
	VocabSize int `json:"vocabSize"`
	// MemoryBytes estimates the index's heap footprint: the backend's
	// numeric payload (latent matrices for LSI, postings and norms for
	// VSM, every segment for sharded indexes) plus the text layer
	// (vocabulary and document ID strings).
	MemoryBytes int64 `json:"memoryBytes"`
	// MappedBytes is the part of MemoryBytes in read-only file mappings, not heap.
	MappedBytes int64 `json:"mappedBytes"`

	// Epoch is the index-wide mutation epoch of a sharded live index
	// (advances after every published Add batch and compaction swap);
	// permanently 0 for immutable indexes. Local to this process — see
	// Index.Epoch.
	Epoch uint64 `json:"epoch"`
	// Generation is the manifest generation of the newest durable
	// checkpoint of a sharded live index (0 for immutable indexes and
	// for sharded indexes never saved); comparable across a primary and
	// its replicas — see Index.Generation.
	Generation uint64 `json:"generation"`

	// Sharded-index topology (zero unless Sharded).
	Shards            int   `json:"shards,omitempty"`
	Segments          int   `json:"segments,omitempty"`
	LiveSegments      int   `json:"liveSegments,omitempty"`
	SealedPending     int   `json:"sealedPending,omitempty"`
	CompactedSegments int   `json:"compactedSegments,omitempty"`
	FoldedDocs        int   `json:"foldedDocs,omitempty"`
	Compactions       int64 `json:"compactions,omitempty"`
	// CompactionFailures counts compaction passes that returned an error
	// and LastCompactionError is the newest one's message: a segment
	// that cannot be merged keeps its debt, and past the ingest gate's
	// budget that sheds every append — this says why.
	CompactionFailures  int64  `json:"compactionFailures,omitempty"`
	LastCompactionError string `json:"lastCompactionError,omitempty"`
	// Ready is what /readyz answers, the readiness signal for load
	// balancers: false while the index owes background work (sealed
	// segments await compaction or a compaction pass is in flight; a
	// not-ready index still serves correct fold-in results), always true
	// for unsharded indexes; backends that front others define it
	// themselves.
	Ready bool `json:"ready"`

	// Cache reports the query result cache (WithQueryCache); nil when
	// the index is uncached.
	Cache *QueryCacheStats `json:"cache,omitempty"`

	// ANN reports the IVF ANN tier (WithANN); nil when the index has
	// none.
	ANN *ANNStats `json:"ann,omitempty"`

	// Quant reports the quantized scoring tier (WithQuantized); nil when
	// the index has none.
	Quant *QuantStats `json:"quant,omitempty"`

	// Live reports a sharded live index's ingest and per-shard topology
	// (the /metrics series /v1/stats leaves out); nil when the index is
	// immutable.
	Live *LiveStats `json:"-"`
}

// QueryCacheStats describes the query result cache of an index built
// with WithQueryCache: the hit/miss/coalesce/evict counters and working
// set of the underlying cache, plus the index epoch its keys currently
// embed (0 forever on immutable indexes; advancing with every Add batch
// and compaction on sharded live indexes).
type QueryCacheStats struct {
	cache.Stats
	Epoch uint64 `json:"epoch"`
}

// Sentinel errors returned by the query and build paths; test with
// errors.Is — returned errors may wrap them with context.
var (
	// ErrEmptyCorpus reports a Build over no documents, or documents
	// whose every token is removed by preprocessing.
	ErrEmptyCorpus = errors.New("retrieval: corpus is empty after preprocessing")
	// ErrNoQueryTerms reports a text query with no token in the index
	// vocabulary (after the same preprocessing the corpus went through).
	ErrNoQueryTerms = errors.New("retrieval: no query terms in the index vocabulary")
	// ErrNoVocabulary reports a text query against an index without a
	// bundled vocabulary (a v1-format file loaded without WithTextConfig).
	ErrNoVocabulary = errors.New("retrieval: index has no vocabulary; text queries unavailable (load v1 indexes with WithTextConfig and save them again)")
	// ErrVectorLength reports a raw query vector whose length differs
	// from the index vocabulary size.
	ErrVectorLength = errors.New("retrieval: query vector length does not match the index vocabulary")
	// ErrVectorRange reports a raw query vector with an entry that is not
	// finite or exceeds 1e100 in magnitude, where cosines overflow.
	ErrVectorRange = errors.New("retrieval: query vector entries must be finite and at most 1e100 in magnitude")
	// ErrUnsupported reports a query shape the backend cannot serve: a
	// raw vector or a probe budget on a backend without a latent space
	// of its own (the VSM baseline, the cluster router).
	ErrUnsupported = errors.New("retrieval: query shape not supported by this backend")
)
