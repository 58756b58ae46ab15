package shard

import (
	"fmt"

	"repro/internal/faultinject"
)

// SaveShardDir exports shard s of the index as a standalone 1-shard
// index directory — the unit of work a cluster deploy ships to each
// shard-owning node. It is SaveDir's checkpoint of a renumbered view of
// one shard, so it is crash-safe and durable in the same way, and the
// export is exact, not approximate:
//
//   - Global document numbers are remapped to the node-local numbering
//     local = (global - s) / Shards, the inverse of the round-robin
//     assignment, so the node's locals are a dense [0, mₛ) and the
//     router recovers the cluster-wide global as local*Shards + s.
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

	localDocs := 0
	for _, seg := range sh.segs {
		localDocs += seg.Len()
	}
	localIDs := make([]string, localDocs)
	for i, seg := range sh.segs {
		locals := make([]int, seg.Len())
		for j, g := range seg.Global {
			if g%x.cfg.Shards != s {
				return fmt.Errorf("shard: export: global %d found on shard %d, owner is shard %d",
					g, s, g%x.cfg.Shards)
			}
			l := (g - s) / x.cfg.Shards
			if l < 0 || l >= localDocs {
				return fmt.Errorf("shard: export: global %d maps to local %d out of [0,%d)", g, l, localDocs)
			}
			locals[j] = l
			localIDs[l] = ids.At(g)
		}
		// The view records a renumbered copy; the published segment (and
		// everything else the copy shares with it) is untouched.
		renumbered := *seg
		renumbered.Global = locals
		sh.segs[i] = &renumbered
	}
	_, err := x.writeCheckpoint(dir, checkpointView{seed: x.cfg.Seed + int64(s), ids: localIDs, shards: []shardView{sh}}, fsys)
	return err
}
