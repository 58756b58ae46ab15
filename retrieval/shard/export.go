package shard

import (
	"fmt"

	"repro/internal/faultinject"
)

// SaveShardDir exports shard s of the index as a standalone 1-shard
// index directory (one generation file) — the unit of work a cluster
// deploy ships to each shard-owning node. It is SaveDir's checkpoint of one shard, so it is
// crash-safe and durable in the same way, and the export is exact, not
// approximate:
//
//   - The shard's segments are written as they are. Shard s holds its
//     documents in order, its l-th being global s + Shards·l, so the
//     1-shard directory's numbering makes it node-local l: the inverse of
//     the round-robin assignment, a dense [0, mₛ), from which the router
//     recovers the cluster-wide global as l*Shards + s.
//   - The checkpoint's seed is Seed+s, the seed shard s's decomposition
//     and its IVF quantizers use here (segment.TierConfig seeds each
//     quantizer from the segment's shard-local first document), so a
//     node that retrains a missing or refused IVF sidecar trains this
//     shard's cells bit for bit. A compaction settles fold-ins in the
//     shard's basis and decomposes nothing, so it reads no seed.
//   - Segment and sidecar payloads are byte-identical to a SaveDir of
//     this index: the node serves exactly the scores this shard serves.
func (x *Index) SaveShardDir(s int, dir string) error {
	return x.SaveShardDirFS(s, dir, faultinject.OS{})
}

// SaveShardDirFS is SaveShardDir with an explicit file system — the
// same fault-injection seam as SaveDirFS.
func (x *Index) SaveShardDirFS(s int, dir string, fsys faultinject.FS) error {
	if s < 0 || s >= x.cfg.Shards {
		return fmt.Errorf("shard: export: shard %d out of [0,%d)", s, x.cfg.Shards)
	}
	x.ingestMu.Lock()
	ids := x.ids.Load()
	parts := x.viewShard(s)
	x.ingestMu.Unlock()

	localIDs := make([]string, ShareOf(ids.Len(), s, x.cfg.Shards))
	for l := range localIDs {
		localIDs[l] = ids.At(s + x.cfg.Shards*l)
	}
	_, err := x.writeCheckpoint(dir, x.cfg.Seed+int64(s), localIDs, [][]Part{parts}, fsys)
	return err
}
