package retrieval

import (
	"time"

	"repro/retrieval/shard"
)

// ShardStat is one shard's segment topology (re-exported from
// retrieval/shard so monitoring consumers need only this package).
type ShardStat = shard.ShardStat

// LiveStats is the live block of Stats, set on a sharded live index
// only: the per-scrape numbers behind lsiserve's /metrics endpoint that
// the JSON of /v1/stats leaves out — ingest volume, the freshness of the
// epoch the query cache is keyed on, and per-shard segment topology. The
// epoch, compaction counters and compaction debt (SealedPending) are
// Stats fields of their own. Every field is read wait-free from
// published state.
type LiveStats struct {
	// DocsIngested counts documents accepted through Add since
	// Build/Open (build-time documents excluded); monotonic, so a
	// Prometheus rate() over it is the ingest rate.
	DocsIngested int64
	// LastMutation is the wall-clock time of the last published
	// mutation; time.Since(LastMutation) is the epoch age.
	LastMutation time.Time
	// Compacting reports a compaction pass in flight.
	Compacting bool
	// SidecarsDegraded: see shard.Index.SidecarsDegraded.
	SidecarsDegraded int64
	// PerShard is each shard's segment topology, indexed by shard
	// number.
	PerShard []shard.ShardStat
}
