package retrieval

import (
	"time"

	"repro/retrieval/shard"
)

// ShardStat is one shard's segment topology (re-exported from
// retrieval/shard so monitoring consumers need only this package).
type ShardStat = shard.ShardStat

// LiveStats is the observability snapshot of a sharded live index — the
// per-scrape numbers behind lsiserve's /metrics endpoint that the
// JSON-oriented Stats does not carry: per-shard segment topology,
// ingest volume, and the freshness signals (epoch and epoch age) the
// query cache's invalidation story is built on. Every field is read
// wait-free from published state.
type LiveStats struct {
	// Epoch is the index-wide mutation epoch (see shard.Index.Epoch): it
	// advances after every published Add batch and compaction swap.
	Epoch uint64
	// Generation is the manifest generation of the newest durable
	// checkpoint (see shard.Index.Generation); comparable across a
	// primary and its replicas, unlike Epoch.
	Generation uint64
	// DocsIngested counts documents accepted through Add since
	// Build/Open (build-time documents excluded); monotonic, so a
	// Prometheus rate() over it is the ingest rate.
	DocsIngested int64
	// LastMutation is the wall-clock time of the last published
	// mutation; time.Since(LastMutation) is the epoch age.
	LastMutation time.Time
	// CompactionDebt counts sealed segments waiting for the compactor —
	// the backlog that grows when ingest outruns compaction and the
	// signal the httpapi admission gate sheds ingest on.
	CompactionDebt int
	// Compacting reports a compaction pass in flight; Compactions counts
	// segment rebuilds performed since Build/Open.
	Compacting  bool
	Compactions int64
	// CompactionFailures counts compaction passes that returned an
	// error; LastCompactionError is the newest one's message ("" = none
	// yet). See shard.Index.CompactionFailures.
	CompactionFailures  int64
	LastCompactionError string
	// SidecarsDegraded: see shard.Index.SidecarsDegraded.
	SidecarsDegraded int64
	// PerShard is each shard's segment topology, indexed by shard
	// number.
	PerShard []shard.ShardStat
}

// LiveStats snapshots the live-index observability counters; ok is
// false for unsharded (immutable) indexes, which have no segment
// lifecycle to observe.
func (ix *Index) LiveStats() (LiveStats, bool) {
	if !ix.Sharded() {
		return LiveStats{}, false
	}
	failures, lastErr := ix.sharded.CompactionFailures()
	return LiveStats{
		Epoch:               ix.sharded.Epoch(),
		Generation:          ix.sharded.Generation(),
		DocsIngested:        ix.sharded.DocsIngested(),
		LastMutation:        ix.sharded.LastMutation(),
		CompactionDebt:      ix.sharded.CompactionDebt(),
		Compacting:          ix.sharded.Compacting(),
		Compactions:         ix.sharded.Compactions(),
		CompactionFailures:  failures,
		LastCompactionError: lastErr,
		SidecarsDegraded:    ix.sharded.SidecarsDegraded(),
		PerShard:            ix.sharded.ShardStats(),
	}, true
}
