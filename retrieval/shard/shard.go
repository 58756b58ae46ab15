// Package shard implements the sharded live LSI index: documents are
// partitioned across N shards, each shard is a lifecycle of segments
// (see internal/segment), and the whole structure serves searches with
// no reader locks while absorbing appends and background compactions.
//
// Layout and lifecycle:
//
//		Index
//		 ├── shard 0: state ──▶ {stable segments…, live segment}   (atomic pointer)
//		 ├── shard 1: state ──▶ {…}
//		 └── shard N-1
//
//	  - Build partitions the term-document matrix round-robin (global
//	    document g lives on shard g mod N) and runs one SVD per shard, so
//	    per-shard topic subspaces stay independent and builds parallelize.
//	  - Add / AddBatch fold new documents into the shard's live segment via
//	    the LSI fold-in path. Every mutation publishes a NEW immutable
//	    shard state through an atomic pointer, then bumps the index-wide
//	    epoch; readers load the pointer once and never block or lock.
//	  - When a live segment reaches SealEvery documents it is sealed:
//	    moved read-only into the stable list, where the background
//	    compactor settles it — concatenates it with older tiers in the
//	    shard's basis, every score kept — and atomically swaps the
//	    compacted replacement in (compactor.go).
//	  - Searching is not this package's job: Segments snapshots the
//	    published segment set and segment.Search — the repository's one
//	    search path, see DESIGN.md "The search path" — ranks it under the
//	    strict (score desc, global doc asc) order, so results are
//	    deterministic for any shard count, segment layout, and worker
//	    count. Tier work is counted by the caller (segment.Counters).
//	  - Frozen wraps one finished decomposition as a read-only 1-shard
//	    index: one compacted segment, no compactor, no ingest, epoch and
//	    generation 0. It is the retrieval layer's unsharded index, and a
//	    1-shard Build over the same matrix holds a bitwise-identical
//	    segment.
//
// Global document numbers are assigned once, at build or ingest, and
// never change: compaction carries each segment's global mapping through
// the merge, so result IDs are stable across the whole lifecycle. Shard s
// holds its documents in order, its l-th being global s + N·l, so a
// checkpoint lists no numbers (DESIGN.md "Checkpoint layout").
package shard

import (
	"cmp"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/idtable"
	"repro/internal/lsi"
	"repro/internal/par"
	"repro/internal/segment"
	"repro/internal/sparse"
	"repro/internal/topk"
)

// Config configures Build and Open. The zero value of every optional
// field picks the documented default.
type Config struct {
	// Shards is the number of shards (default 1).
	Shards int
	// Rank is the per-shard LSI rank k (required >= 1; the retrieval
	// layer resolves its auto-rank before calling down).
	Rank int
	// Engine selects the SVD engine for initial shard builds.
	Engine lsi.Engine
	// Seed drives every decomposition; shard s uses Seed+s so a 1-shard
	// index reproduces the unsharded build bitwise.
	Seed int64
	// SealEvery is the live-segment size that triggers sealing
	// (default 256 documents).
	SealEvery int
	// AutoCompact starts the background compactor (disable for tests
	// that need a fixed segment layout; Compact can still be called
	// manually).
	AutoCompact bool
	// ANNList enables the IVF ANN tier: compacted segments of at least
	// TierMinDocs documents carry a coarse quantizer with ANNList cells
	// (clamped per segment to its document count). 0 disables training;
	// quantizers already present on loaded segments still serve.
	ANNList int
	// ANNProbe is the default probe budget of the owning layer's
	// searches; the shard layer only carries it.
	ANNProbe int
	// Quantize enables the int8 scoring tier: compacted segments of at
	// least TierMinDocs documents carry an int8 shadow of their document
	// matrix, scanned by searches that pass a positive Beta. Shadows
	// already present on loaded segments still serve when false.
	Quantize bool
	// TierMinDocs is the smallest segment worth a sidecar (default 256:
	// below it probing or an int8 pass saves a fraction of an already-tiny
	// scan while paying the cell ranking or the over-fetched rerank; tests
	// set 1 to train tiny segments).
	TierMinDocs int
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.SealEvery <= 0 {
		c.SealEvery = 256
	}
	if c.TierMinDocs == 0 {
		c.TierMinDocs = 256
	}
	return c
}

// ErrClosed reports an operation on a closed index.
var ErrClosed = errors.New("shard: index is closed")

// ErrFrozen reports AddBatch on an index made by Frozen, which takes no
// documents.
var ErrFrozen = errors.New("shard: index is frozen")

// shardState is one immutable snapshot of a shard: the sealed/compacted
// segments plus the live fold-in segment (nil when none is open). Every
// mutation allocates a new state and publishes it via the shard's atomic
// pointer (the index-wide epoch moves after it) — readers are wait-free
// and always see a consistent segment set.
type shardState struct {
	stable []*segment.Segment
	live   *segment.Segment
}

// segments appends every segment of the state to dst.
func (st *shardState) segments(dst []*segment.Segment) []*segment.Segment {
	dst = append(dst, st.stable...)
	if st.live != nil {
		dst = append(dst, st.live)
	}
	return dst
}

// shardH is one shard: its published state and the basis new documents
// fold into. mu serializes state publication (ingest seal/extend and
// compactor swap); readers never take it.
type shardH struct {
	mu    sync.Mutex
	state atomic.Pointer[shardState]
	// base is the fold-in basis: the index built over the shard's initial
	// documents (or its first ingested batch). Written under both the
	// index-wide ingest mutex and mu, so holding either reads it.
	base *lsi.Index
}

// Index is a sharded live LSI index. Searches are safe from any number
// of goroutines concurrently with ingest and compaction; ingest calls
// serialize on an internal mutex.
type Index struct {
	cfg      Config
	numTerms int
	shards   []*shardH
	text     *lsi.Meta // the owning layer's text layer (DocIDs unused), which checkpoints carry

	ingestMu sync.Mutex
	// ids is the append-only global directory: ids.At(g) is the external
	// identifier of global document g. The writer (under ingestMu) appends
	// and re-publishes; a reader's snapshot never changes (idtable).
	ids atomic.Pointer[idtable.Table]

	compactMu   sync.Mutex // serializes whole-index compaction passes
	compacting  atomic.Int32
	compactions atomic.Int64 // tiers merged
	// Compaction passes that returned an error, and the newest one's
	// message: a segment that cannot be merged stays sealed, so its debt
	// never drains and the admission gate sheds ingest — this is the
	// signal that says why.
	compactFailures  atomic.Int64
	lastCompactErr   atomic.Pointer[string]
	sidecarsDegraded atomic.Int64 // see Stats.SidecarsDegraded

	// Observability counters (see Stats.DocsIngested, LastMutation): ingest
	// volume and the wall-clock time of the last published mutation,
	// which /metrics turns into an ingest rate and an epoch age.
	docsIngested atomic.Int64
	lastMutation atomic.Int64 // unix nanoseconds; set at build and on every epoch bump

	// generation is the generation of the newest on-disk checkpoint this
	// in-memory index corresponds to: set by Open from the loaded file and
	// advanced by SaveDir after its file's rename lands (a built-but-never-saved index reports 0, the same
	// number its first save will write). Replication compares
	// (generation, numDocs) pairs across nodes — unlike the epoch, which
	// counts local mutations (including compactions, whose timing
	// differs per process), the generation names durable state and so is
	// comparable between a primary and its replicas.
	generation atomic.Uint64

	// globalEpoch counts published mutations index-wide. It is bumped
	// AFTER the mutation's state pointers are stored (ingest publishes
	// ids + every shard state first; compaction swaps its segment
	// first), so an observer that reads epoch E and then snapshots is
	// guaranteed to see every mutation numbered <= E. That ordering is
	// what the query cache's epoch-keyed invalidation relies on: a
	// result computed entirely within one observed epoch can be served
	// to any later reader of that same epoch without ever resurrecting
	// pre-Add or pre-Compact state. Readers pay one atomic load.
	globalEpoch atomic.Uint64

	wake   chan struct{}
	stop   chan struct{}
	done   chan struct{}
	closed atomic.Bool
	frozen bool // made by Frozen: no ingest, no compactor
}

// Build partitions the n×m term-document matrix a (documents as columns)
// round-robin across cfg.Shards shards, runs one rank-cfg.Rank SVD per
// shard, and returns the live index. ids[j] is the external identifier of
// global document j (= column j); len(ids) must equal m. text, if not
// nil, is the owning layer's text layer, which checkpoints carry.
func Build(a *sparse.CSR, ids []string, text *lsi.Meta, cfg Config) (*Index, error) {
	cfg = cfg.withDefaults()
	n, m := a.Dims()
	if n == 0 || m == 0 {
		return nil, fmt.Errorf("shard: empty term-document matrix %dx%d", n, m)
	}
	if cfg.Rank < 1 {
		return nil, fmt.Errorf("shard: rank %d, want >= 1", cfg.Rank)
	}
	if len(ids) != m {
		return nil, fmt.Errorf("shard: %d ids for %d documents", len(ids), m)
	}
	x := newIndex(n, cfg)
	x.text = cmp.Or(text, x.text)
	table := idtable.Of(ids)
	x.ids.Store(&table)

	// One SVD per shard over its column subset, up to par.MaxProcs shards
	// at a time: each is seeded by its shard and bitwise independent of
	// the worker count. The lowest-numbered failure is reported.
	subs := dealColumns(a, cfg.Shards)
	errs := make([]error, cfg.Shards)
	par.For(cfg.Shards, 1, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			errs[s] = x.buildShard(subs[s], s)
		}
	})
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
	}
	x.startCompactor()
	return x, nil
}

// Frozen wraps ix, a finished decomposition of documents [0, NumDocs),
// as a read-only 1-shard index: one compacted segment whose global
// numbers are its local ones, carrying the sidecars tiers asks for
// (tiers.MinDocs applies as given, so 0 trains them at any size). It runs
// no compactor, AddBatch refuses it with ErrFrozen, and its epoch and
// generation stay 0. ids.At(j) is the external identifier of document j.
func Frozen(ix *lsi.Index, ids idtable.Table, tiers segment.TierConfig) (*Index, error) {
	if ids.Len() != ix.NumDocs() {
		return nil, fmt.Errorf("shard: %d ids for %d documents", ids.Len(), ix.NumDocs())
	}
	seg, err := segment.FromRule(ix, 0, 1, nil, true)
	if err == nil {
		seg, err = seg.WithTiers(tiers, nil, nil)
	}
	if err != nil {
		return nil, err
	}
	x := newIndex(ix.NumTerms(), Config{Shards: 1, Rank: ix.K()})
	x.frozen = true
	x.ids.Store(&ids)
	x.shards[0].state.Store(&shardState{stable: []*segment.Segment{seg}})
	x.startCompactor() // AutoCompact is off: Close returns at once
	return x, nil
}

// Text is the text layer the index's checkpoints carry (Build's, or Open's).
func (x *Index) Text() *lsi.Meta { return x.text }

// Frozen reports whether the index was made by Frozen.
func (x *Index) Frozen() bool { return x.frozen }

// buildShard builds and publishes shard s of a fresh index from sub, the
// shard's columns of the term-document matrix.
func (x *Index) buildShard(sub *sparse.CSR, s int) error {
	if sub.Cols() == 0 {
		return nil
	}
	ix, err := lsi.Build(sub, x.cfg.Rank, lsi.Options{Engine: x.cfg.Engine, Seed: x.cfg.Seed + int64(s)})
	if err != nil {
		return err
	}
	seg, err := segment.FromRule(ix, s, x.cfg.Shards, nil, true)
	if err == nil {
		seg, err = seg.WithTiers(x.tiers(s), nil, nil)
	}
	if err != nil {
		return err
	}
	x.shards[s].base = ix
	x.shards[s].state.Store(&shardState{stable: []*segment.Segment{seg}})
	return nil
}

// tiers is the sidecar configuration of shard s's segments — the ANN and
// quantized tiers. Both sidecars are derived state of a compacted
// segment: segment.WithTiers trains them at build for the initial
// segments and right after each compaction merge, so they ride the same
// publish-then-bump swap and the epoch-keyed query cache needs no extra
// invalidation; live fold-in segments never carry one and stay exact.
func (x *Index) tiers(s int) segment.TierConfig {
	return segment.TierConfig{
		NList:    x.cfg.ANNList,
		Seed:     x.cfg.Seed + int64(s),
		Shards:   x.cfg.Shards,
		Quantize: x.cfg.Quantize,
		MinDocs:  x.cfg.TierMinDocs,
	}
}

func newIndex(numTerms int, cfg Config) *Index {
	x := &Index{
		cfg:      cfg,
		numTerms: numTerms,
		text:     &lsi.Meta{},
		shards:   make([]*shardH, cfg.Shards),
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for s := range x.shards {
		x.shards[s] = &shardH{}
		x.shards[s].state.Store(&shardState{})
	}
	x.ids.Store(&idtable.Table{})
	x.lastMutation.Store(time.Now().UnixNano())
	return x
}

// dealColumns splits the columns of a round-robin across shards in one
// pass: shard s gets global columns s, s + shards, s + 2·shards, … as its
// local 0, 1, 2, … (local l is global s + shards·l), each row's entries
// in column order and bit for bit a's. With one shard it returns a
// itself, so a 1-shard build is the unsharded build.
func dealColumns(a *sparse.CSR, shards int) []*sparse.CSR {
	if shards == 1 {
		return []*sparse.CSR{a}
	}
	n, m := a.Dims()
	rowPtr, cols, vals := make([][]int, shards), make([][]int, shards), make([][]float64, shards)
	for s := range rowPtr {
		rowPtr[s] = make([]int, 1, n+1)
		cols[s] = make([]int, 0, a.NNZ()/shards+n)
		vals[s] = make([]float64, 0, a.NNZ()/shards+n)
	}
	for t := 0; t < n; t++ {
		a.RowIter(t, func(j int, v float64) {
			s := j % shards
			cols[s], vals[s] = append(cols[s], j/shards), append(vals[s], v)
		})
		for s := range rowPtr {
			rowPtr[s] = append(rowPtr[s], len(cols[s]))
		}
	}
	subs := make([]*sparse.CSR, shards)
	for s := range subs {
		subs[s] = sparse.NewCSR((m-s+shards-1)/shards, rowPtr[s], cols[s], vals[s])
	}
	return subs
}

// NumTerms returns the vocabulary dimension.
func (x *Index) NumTerms() int { return x.numTerms }

// NumDocs returns the number of indexed documents (including every
// folded-in document published so far).
func (x *Index) NumDocs() int { return x.ids.Load().Len() }

// NumShards returns the shard count.
func (x *Index) NumShards() int { return x.cfg.Shards }

// Rank returns the configured per-shard rank k.
func (x *Index) Rank() int { return x.cfg.Rank }

// Epoch returns the index-wide mutation epoch: it increases after every
// published mutation (ingest batch or compaction swap) and is stable
// between them. Reading the epoch, searching, and observing the same
// epoch afterwards proves the search saw no concurrent mutation — the
// validity protocol of retrieval's query cache. A Frozen index never
// mutates, so its epoch stays 0.
func (x *Index) Epoch() uint64 { return x.globalEpoch.Load() }

// Generation returns the generation of the newest durable
// checkpoint: the generation Open loaded or the last SaveDir wrote
// (a built-but-never-saved index reports 0). Together with NumDocs it
// forms the replication token replicas compare against their primary
// (see retrieval/cluster).
func (x *Index) Generation() uint64 { return x.generation.Load() }

// IDs returns the current external-ID table: IDs().At(g) is the
// identifier of global document g.
func (x *Index) IDs() idtable.Table { return *x.ids.Load() }

// ExternalID returns the external identifier of global document g, or
// "" if g is out of range.
func (x *Index) ExternalID(g int) string {
	ids := x.ids.Load()
	if g < 0 || g >= ids.Len() {
		return ""
	}
	return ids.At(g)
}

// Segments appends every segment currently published, shard by shard, to
// dst — the snapshot a search runs over. It is wait-free with respect to
// ingest and compaction: each shard's state is loaded once and every
// segment in it is immutable. (Append-style so a caller with a small
// stack buffer snapshots without allocating.)
func (x *Index) Segments(dst []*segment.Segment) []*segment.Segment {
	for _, sh := range x.shards {
		dst = sh.state.Load().segments(dst)
	}
	return dst
}

// SearchSparseOpts is segment.Search over the current snapshot for a
// sparse query (the form the frozen benchmark ledger calls).
func (x *Index) SearchSparseOpts(terms []int, weights []float64, topN int, opts segment.ProbeOptions) ([]topk.Match, segment.ProbeStats) {
	return segment.Search(x.Segments(nil), segment.Query{Terms: terms, Weights: weights}, topN, opts)
}

// Stats is one snapshot of a live index: its segment topology, its
// compaction and ingest counters, and its resource use, each read once
// from published state. It is the only description of a live index the
// serving layer has: retrieval.Stats carries it as one block, and
// /v1/stats, /readyz, the ingest debt gate and every live /metrics series
// read that block. The JSON tags are the sharded /v1/stats names, omitted
// when zero (the zero block, an immutable index's, writes none); the
// fields only /metrics or retrieval read are json:"-".
type Stats struct {
	// Shards is the shard count.
	Shards int `json:"shards,omitempty"`
	// ShardStat holds the shards' counts summed.
	ShardStat
	// FoldedDocs counts the documents in live or sealed fold-in segments
	// no compaction has merged.
	FoldedDocs int `json:"foldedDocs,omitempty"`
	// Compactions counts the tiers the compactor merged since Build/Open,
	// one per shard a pass touched.
	Compactions int64 `json:"compactions,omitempty"`
	// CompactionFailures counts the compaction passes (background or
	// Compact calls) that returned an error since Build/Open, and
	// LastCompactionError is the newest one's message ("" = none yet). A
	// failed pass leaves its sealed segments serving as they are, so the
	// debt it could not drain stays counted: debt pinned at the ingest
	// gate's budget with this counter rising is a segment that cannot be
	// merged, not a compactor that is behind.
	CompactionFailures  int64  `json:"compactionFailures,omitempty"`
	LastCompactionError string `json:"lastCompactionError,omitempty"`

	// Compacting reports whether a compaction pass is in flight.
	Compacting bool `json:"-"`
	// DocsIngested counts the documents accepted through Add/AddBatch
	// since Build or Open (build-time documents are not counted).
	// Monotonic; a Prometheus rate() over it is the ingest rate.
	DocsIngested int64 `json:"-"`
	// LastMutation is the wall-clock time of the last published mutation
	// (ingest batch or compaction swap), or the build/open time if none
	// has happened: time.Since(LastMutation) is the index's epoch age,
	// near zero under steady ingest, growing on an idle or stalled index.
	LastMutation time.Time `json:"-"`
	// SidecarsDegraded counts the sidecars (a checkpoint's IVF and int8
	// parts) Open could not decode and treated as absent.
	SidecarsDegraded int64 `json:"-"`
	// Generation is the generation of the newest durable checkpoint
	// (0 = never saved); see Index.Generation.
	Generation uint64 `json:"-"`
	// MemoryBytes estimates the heap held by segment data and the
	// external-ID table; MappedBytes is the part of it served from
	// mapped checkpoint files.
	MemoryBytes int64 `json:"-"`
	MappedBytes int64 `json:"-"`
	// Tiers is the sidecar coverage of the segment set: how many segments
	// and documents the IVF quantizers and int8 shadows serve.
	segment.Tiers `json:"-"`
	// PerShard splits the segment and document counts by shard, indexed
	// by shard number.
	PerShard []ShardStat `json:"-"`
}

// Stats snapshots the index in one walk: each shard's published state is
// loaded once.
func (x *Index) Stats() Stats {
	st := Stats{
		Shards:             x.cfg.Shards,
		Compactions:        x.compactions.Load(),
		Compacting:         x.compacting.Load() > 0,
		CompactionFailures: x.compactFailures.Load(),
		DocsIngested:       x.docsIngested.Load(),
		LastMutation:       time.Unix(0, x.lastMutation.Load()),
		SidecarsDegraded:   x.sidecarsDegraded.Load(),
		Generation:         x.generation.Load(),
		PerShard:           make([]ShardStat, len(x.shards)),
	}
	if p := x.lastCompactErr.Load(); p != nil {
		st.LastCompactionError = *p
	}
	var segBuf [16]*segment.Segment
	for i, sh := range x.shards {
		s := sh.state.Load()
		ps := &st.PerShard[i]
		segs := s.segments(segBuf[:0])
		for j, seg := range segs {
			ps.Segments++
			ps.Docs += seg.Len()
			switch {
			case seg == s.live:
				ps.Live++
				st.FoldedDocs += seg.Len()
			case compactable(seg):
				ps.SealedPending++
				st.FoldedDocs += seg.Len()
			default:
				ps.Compacted++
			}
			st.Tiers.Add(seg)
			// A shard's segments share its base's basis, and the mapping
			// it is a view of: count it once, on segment 0.
			mem, mapped := seg.MemoryBytes(j == 0)
			st.MemoryBytes, st.MappedBytes = st.MemoryBytes+mem, st.MappedBytes+mapped
		}
		st.Segments += ps.Segments
		st.Live += ps.Live
		st.SealedPending += ps.SealedPending
		st.Compacted += ps.Compacted
		st.Docs += ps.Docs
	}
	st.MemoryBytes += x.ids.Load().Bytes()
	return st
}

// Ready reports whether the snapshot shows no compaction debt: no sealed
// segments waiting and no compaction in flight. Serving while not ready
// is correct (fold-in segments answer queries); Ready is the signal a
// load balancer uses to prefer warmed replicas.
func (st Stats) Ready() bool { return st.SealedPending == 0 && !st.Compacting }

// ShardStat is the per-shard slice of Stats (Stats.PerShard): the
// segment counts and document total of one shard, in the same states
// Stats counts index-wide. Exported per shard so monitoring can spot imbalance
// (one shard accumulating sealed segments while others stay compacted).
// Summed, it is the index-wide part of Stats, whose JSON tags these are.
type ShardStat struct {
	// Segments counts every published segment of the shard; Live of them
	// are fold-in segments still absorbing, SealedPending are sealed (or
	// reloaded) and waiting for the compactor, Compacted were built or
	// merged by it.
	Segments      int `json:"segments,omitempty"`
	Live          int `json:"liveSegments,omitempty"`
	SealedPending int `json:"sealedPending,omitempty"`
	Compacted     int `json:"compactedSegments,omitempty"`
	// Docs is the shard's document count.
	Docs int `json:"-"`
}

// Close stops the background compactor and marks the index closed for
// ingest; searches against the already-published segments keep working.
// Close is idempotent.
func (x *Index) Close() error {
	if x.closed.Swap(true) {
		return nil
	}
	close(x.stop)
	<-x.done
	return nil
}
