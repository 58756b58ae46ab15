package retrieval

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/faultinject"
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
func (ix *Index) buildSharded(a *sparse.CSR, rank int, cfg config) error {
	scfg := cfg.shardConfig()
	scfg.Shards, scfg.Rank, scfg.Engine = cfg.shards, rank, cfg.engine
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
	if len(docs) == 0 {
		return 0, fmt.Errorf("retrieval: empty batch")
	}
	if ix.wlog != nil {
		return ix.addDurable(docs)
	}
	return ix.applyBatch(docs)
}

// applyBatch folds a validated batch into the shard subsystem — the
// shared apply step of the direct, durable, and WAL-replay paths. A
// document becomes the sparse vector its text would be as a query,
// because fold-in represents documents exactly the way queries are
// projected: terms outside the build-time vocabulary are dropped, and a
// document with none indexes as an empty vector that never scores above 0.
func (ix *Index) applyBatch(docs []Document) (int, error) {
	batch := make([]shard.Doc, len(docs))
	for i, d := range docs {
		terms, weights, _ := ix.querySparse(d.Text)
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
	Version int `json:"version"`
	lsi.Meta
}

const textMetaName = "text.json"

// SaveDir writes a sharded index to a directory: the shard manifest and
// segment files (see retrieval/shard) plus the text layer. Unsharded
// indexes persist to a single stream via Save instead.
func (ix *Index) SaveDir(dir string) error {
	if !ix.Sharded() {
		return fmt.Errorf("%w: use Save for single-stream persistence", ErrNotSharded)
	}
	return ix.saveDir(dir, -1, faultinject.OS{})
}

// saveDir writes the text layer (text.json), then the shard checkpoint —
// every shard when s < 0, shard s's export otherwise — whose manifest is
// written last. Every file goes through fsys and is synced before it is
// renamed into place, so a manifest that survives power loss has its
// text layer too.
func (ix *Index) saveDir(dir string, s int, fsys faultinject.FS) error {
	data, err := json.Marshal(textMeta{Version: 1, Meta: ix.meta()})
	if err == nil {
		err = fsys.MkdirAll(dir, 0o755)
	}
	if err == nil { // immutable after Build: a re-save writes the same bytes
		err = faultinject.ReplaceFile(fsys, filepath.Join(dir, textMetaName), data)
	}
	if err != nil {
		return fmt.Errorf("retrieval: save text layer: %w", err)
	}
	if s < 0 {
		return ix.sharded.SaveDirFS(dir, fsys)
	}
	return ix.sharded.SaveShardDirFS(s, dir, fsys)
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
	sx, err := shard.Open(dir, cfg.shardConfig())
	if err != nil {
		return nil, fmt.Errorf("retrieval: open: %w", err)
	}
	text, err := textLayerOf(&meta.Meta, sx.NumTerms())
	if err != nil {
		sx.Close()
		return nil, fmt.Errorf("retrieval: open: %w", err)
	}
	ix := &Index{textLayer: text}
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
	return load(f, newConfig(opts))
}
