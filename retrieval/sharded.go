package retrieval

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/ir"
	"repro/internal/lsi"
	"repro/internal/sparse"
	"repro/retrieval/shard"
)

// Sharded mode. Every Index keeps its numeric segments and its global
// document directory in a retrieval/shard index, while the Index owns the
// text layer — vocabulary, weighting, pipeline flags — so the same
// Retriever methods (and the same query preprocessing) serve every index.
// Without WithShards that shard index is frozen: one shard, one compacted
// segment, no ingest. WithShards(n) builds a live one instead.
//
// Live indexes add three capabilities on top of the Retriever contract:
// live appends (Add), readiness that can go false (Stats().Ready), and
// directory persistence (SaveDir / OpenDir; the manifest format is
// documented in retrieval/shard). A frozen index answers them with
// ErrImmutableIndex, true and ErrNotSharded.

// Sentinel errors of the sharded mode.
var (
	// ErrImmutableIndex reports Add against an unsharded index, which is
	// immutable after Build.
	ErrImmutableIndex = errors.New("retrieval: index does not accept live updates (build with WithShards)")
	// ErrIndexClosed reports Add against a sharded index after Close —
	// a server-lifecycle condition, not a request error.
	ErrIndexClosed = errors.New("retrieval: index is closed")
	// ErrNotSharded reports SaveDir against an unsharded index (use Save)
	// and vice versa.
	ErrNotSharded = errors.New("retrieval: not a sharded index")
)

// buildSharded finishes a Build configured with WithShards: the text
// layer is already assembled; partition the matrix and build the shard
// subsystem.
func (ix *Index) buildSharded(a *sparse.CSR, rank int, engine lsi.Engine, cfg config) error {
	scfg := cfg.shardConfig()
	scfg.Shards, scfg.Rank, scfg.Engine, scfg.Seed = cfg.shards, rank, engine, cfg.seed
	sx, err := shard.Build(a, ix.docIDs.Strings(), scfg)
	if err != nil {
		return fmt.Errorf("retrieval: building sharded index: %w", err)
	}
	ix.setShards(sx, cfg)
	return nil
}

// shardConfig is the runtime half of the shard subsystem's configuration
// — what Build and OpenDir both pass down; the structural half (shards,
// rank, engine, seed) comes from the build options or the saved manifest.
func (c config) shardConfig() shard.Config {
	return shard.Config{
		SealEvery:   c.sealEvery,
		AutoCompact: c.autoCompact == nil || *c.autoCompact,
		ANNList:     c.annList,
		ANNProbe:    c.annProbe,
		Quantize:    c.quantBeta > 0,
	}
}

// Sharded reports whether the index is a sharded live index.
func (ix *Index) Sharded() bool { return !ix.sharded.Frozen() }

// Compact runs one synchronous compaction pass on a sharded index,
// returning the number of segments rebuilt. Unsharded indexes have
// nothing to compact and return 0.
func (ix *Index) Compact() (int, error) { return ix.sharded.Compact() }

// Close releases background resources (the sharded compactor and the
// attached WAL, if any). It is idempotent; searches against an
// already-published index keep working after Close, but Add fails.
func (ix *Index) Close() error {
	err := ix.sharded.Close()
	if ix.wlog != nil {
		if werr := ix.wlog.Close(); err == nil {
			err = werr
		}
	}
	return err
}

// docSparse converts a document's text to the sorted sparse term-space
// vector fold-in consumes — the same pipeline, vocabulary, and weighting
// as querySparse, because fold-in represents documents exactly the way
// queries are projected. Terms outside the build-time vocabulary are
// dropped (the standard fold-in limitation: the vocabulary is fixed at
// build time); a document with no in-vocabulary terms indexes as an
// empty vector that never scores above 0.
func (ix *Index) docSparse(text string) (terms []int, weights []float64) {
	terms, weights, _ = ix.querySparse(text)
	return terms, weights
}

// Add appends documents to a sharded live index, folding them into their
// shards without a rebuild, and returns the position (and DocID index)
// of the first: the batch occupies [first, first+len(docs)). It is safe
// to call concurrently with Search and with other Adds. Unsharded
// indexes return ErrImmutableIndex; a closed index returns
// ErrIndexClosed.
//
// Cancellation is honored on entry only: once the fold begins, the
// append runs to completion rather than leaving the caller unsure
// whether the batch landed. Bound very large batches yourself if you
// need finer-grained deadlines.
//
// For a TF-IDF-weighted index, added documents are weighted by raw
// counts (document frequencies are a build-time corpus statistic) — the
// same convention queries use.
// With AttachWAL, the batch is additionally framed and fsync'd to the
// write-ahead log before it is applied, so a crash after Add returns
// cannot lose it.
func (ix *Index) Add(ctx context.Context, docs []Document) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if !ix.Sharded() {
		return 0, ErrImmutableIndex
	}
	if ix.vocab == nil {
		return 0, ErrNoVocabulary
	}
	if len(docs) == 0 {
		return 0, fmt.Errorf("retrieval: empty batch")
	}
	if ix.wlog != nil {
		return ix.addDurable(docs)
	}
	return ix.applyBatch(docs)
}

// applyBatch folds a validated batch into the shard subsystem — the
// shared apply step of the direct, durable, and WAL-replay paths.
func (ix *Index) applyBatch(docs []Document) (int, error) {
	batch := make([]shard.Doc, len(docs))
	for i, d := range docs {
		terms, weights := ix.docSparse(d.Text)
		batch[i] = shard.Doc{ID: d.ID, Terms: terms, Weights: weights}
	}
	first, err := ix.sharded.AddBatch(batch)
	if err != nil {
		if errors.Is(err, shard.ErrClosed) {
			return 0, ErrIndexClosed
		}
		return 0, fmt.Errorf("retrieval: add: %w", err)
	}
	return first, nil
}

// textMeta is the sharded index's text layer on disk (text.json next to
// the shard manifest); external document IDs live in the shard
// subsystem's ids.json.
type textMeta struct {
	Version         int      `json:"version"`
	Vocab           []string `json:"vocab"`
	Weighting       string   `json:"weighting"`
	RemoveStopwords bool     `json:"removeStopwords"`
	Stemming        bool     `json:"stemming"`
}

const textMetaName = "text.json"

// SaveDir writes a sharded index to a directory: the shard manifest and
// segment files (see retrieval/shard) plus the text layer. Unsharded
// indexes persist to a single stream via Save instead.
func (ix *Index) SaveDir(dir string) error {
	if !ix.Sharded() {
		return fmt.Errorf("%w: use Save for single-stream persistence", ErrNotSharded)
	}
	if err := ix.sharded.SaveDir(dir); err != nil {
		return err
	}
	return ix.writeTextMeta(dir)
}

// writeTextMeta writes the index's text layer (text.json) into dir —
// shared by SaveDir and the per-shard exports, whose nodes need the
// same pipeline/vocabulary/weighting to reproduce folds and queries.
func (ix *Index) writeTextMeta(dir string) error {
	meta := textMeta{
		Version:         1,
		Vocab:           ix.vocab.Terms(),
		Weighting:       ix.weighting.String(),
		RemoveStopwords: ix.removeStopwords,
		Stemming:        ix.stemming,
	}
	data, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("retrieval: save text layer: %w", err)
	}
	// Write via rename so a crashed re-save leaves the previous (equally
	// valid — the text layer is immutable after Build) file intact.
	tmp := filepath.Join(dir, textMetaName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("retrieval: save text layer: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, textMetaName)); err != nil {
		return fmt.Errorf("retrieval: save text layer: %w", err)
	}
	return nil
}

// OpenDir loads a sharded index saved by SaveDir. The loaded index
// serves identical scores to the saved one and keeps accepting Adds;
// segments reload as-is (pending compaction state is not carried over —
// run Compact before saving for a fully compacted index). Options
// control runtime behavior only: WithSealEvery, WithAutoCompact,
// WithQueryCache, and WithANN apply (quantizer sidecars saved next to
// the segments reload directly; WithANN additionally trains segments
// saved without them), everything structural comes from the manifest.
func OpenDir(dir string, opts ...Option) (*Index, error) {
	cfg := newConfig(opts)
	data, err := os.ReadFile(filepath.Join(dir, textMetaName))
	if err != nil {
		return nil, fmt.Errorf("retrieval: open %s: %w", dir, err)
	}
	var meta textMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, fmt.Errorf("retrieval: open %s: %w", textMetaName, err)
	}
	if meta.Version < 1 || meta.Version > 1 {
		return nil, fmt.Errorf("retrieval: open: text layer version %d is not supported by this build (supported: 1)", meta.Version)
	}
	weighting, err := ParseWeighting(meta.Weighting)
	if err != nil {
		return nil, fmt.Errorf("retrieval: open: %w", err)
	}
	sx, err := shard.Open(dir, cfg.shardConfig())
	if err != nil {
		return nil, fmt.Errorf("retrieval: open: %w", err)
	}
	if len(meta.Vocab) != sx.NumTerms() {
		sx.Close()
		return nil, fmt.Errorf("retrieval: open: vocabulary has %d terms, index has %d", len(meta.Vocab), sx.NumTerms())
	}
	vocab, err := ir.NewVocabularyFromTerms(meta.Vocab)
	if err != nil {
		sx.Close()
		return nil, fmt.Errorf("retrieval: open: %w", err)
	}
	ix := &Index{textLayer: textLayer{
		weighting:       weighting,
		removeStopwords: meta.RemoveStopwords,
		stemming:        meta.Stemming,
	}}
	ix.setVocab(vocab)
	ix.setShards(sx, cfg)
	ix.initCache(cfg.cacheBytes)
	return ix, nil
}

// Open loads an index from path, whichever form it takes: a directory is
// opened as a sharded index (OpenDir), a file as a single-stream index
// (Load). This is what `lsiserve -index` calls. The options are the
// runtime knobs: WithQueryCache and WithANN apply to both forms (for a
// single-stream LSI file, WithANN trains the quantizer at open time —
// deterministic and cheap next to the SVD the file already paid for),
// WithSealEvery and WithAutoCompact only to the directory form;
// everything structural comes from the saved index.
func Open(path string, opts ...Option) (*Index, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("retrieval: open: %w", err)
	}
	if info.IsDir() {
		return OpenDir(path, opts...)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("retrieval: open: %w", err)
	}
	defer f.Close()
	return load(f, nil, newConfig(opts))
}
