package shard

import (
	"fmt"

	"repro/internal/faultinject"
)

// SaveShardDir exports shard s of the index as a standalone 1-shard
// index directory — the unit of work a cluster deploy ships to each
// shard-owning node. It is SaveDir's checkpoint of one shard, so it is
// crash-safe and durable in the same way, and the export is exact, not
// approximate:
//
//   - The shard's segments are written as they are. Shard s holds its
//     documents in order, its l-th being global s + Shards·l, so the
//     1-shard directory's numbering makes it node-local l: the inverse of
//     the round-robin assignment, a dense [0, mₛ), from which the router
//     recovers the cluster-wide global as l*Shards + s.
//   - The manifest's seed is Seed+s — exactly the seed shard s's
//     decompositions used here — so node-local compactions reproduce
//     this process's bit-for-bit.
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
	sh := x.viewShard(s)
	x.ingestMu.Unlock()

	localIDs := make([]string, shareOf(ids.Len(), s, x.cfg.Shards))
	for l := range localIDs {
		localIDs[l] = ids.At(s + x.cfg.Shards*l)
	}
	_, err := x.writeCheckpoint(dir, checkpointView{seed: x.cfg.Seed + int64(s), ids: localIDs, shards: []shardView{sh}}, fsys)
	return err
}
