package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/faultinject"
	"repro/internal/segment"
)

// SaveShardDir exports shard s of the index as a standalone 1-shard
// index directory — the unit of work a cluster deploy ships to each
// shard-owning node. The export is exact, not approximate:
//
//   - Global document numbers are remapped to the node-local numbering
//     local = (global - s) / Shards, the inverse of the round-robin
//     assignment, so the node's locals are a dense [0, mₛ) and the
//     router recovers the cluster-wide global as local*Shards + s.
//   - The manifest's seed is Seed+s — exactly the seed shard s's
//     decompositions used here — so node-local compactions reproduce
//     this process's bit-for-bit.
//   - Segment payloads are byte-identical to a SaveDir of this index:
//     the node serves exactly the scores this shard serves.
//
// Like SaveDir the export is crash-safe (generation-stamped data files,
// manifest switched last by atomic rename) and snapshots atomically
// with respect to ingest.
func (x *Index) SaveShardDir(s int, dir string) error {
	if s < 0 || s >= x.cfg.Shards {
		return fmt.Errorf("shard: export: shard %d out of [0,%d)", s, x.cfg.Shards)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: export: %w", err)
	}
	gen, err := nextGeneration(dir, faultinject.OS{})
	if err != nil {
		return fmt.Errorf("shard: export: %w", err)
	}

	x.ingestMu.Lock()
	ids := x.ids.Load().ids
	st := x.shards[s].state.Load()
	base := x.shards[s].base
	x.ingestMu.Unlock()

	var segs []*segment.Segment
	segs = st.segments(segs)
	localDocs := 0
	for _, seg := range segs {
		localDocs += seg.Len()
	}

	man := &Manifest{
		Version:    ManifestVersion,
		Format:     manifestFormat,
		Generation: gen,
		Shards:     1,
		Rank:       x.cfg.Rank,
		Seed:       x.cfg.Seed + int64(s),
		NumTerms:   x.numTerms,
		NumDocs:    localDocs,
		SealEvery:  x.cfg.SealEvery,
		IDsFile:    fmt.Sprintf("ids-%d.json", gen),
		Segments:   [][]ManifestSegment{{}},
	}
	localIDs := make([]string, localDocs)
	keep := map[string]bool{man.IDsFile: true}
	for i, seg := range segs {
		locals := make([]int, len(seg.Global))
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
			localIDs[l] = ids[g]
		}
		name := fmt.Sprintf("seg-%d-0-%d.idx", gen, i)
		data, err := encodeSegment(seg.Ix)
		if err != nil {
			return fmt.Errorf("shard: export segment %s: %w", name, err)
		}
		if err := writeFileAtomic(dir, name, data, faultinject.OS{}); err != nil {
			return fmt.Errorf("shard: export segment %s: %w", name, err)
		}
		keep[name] = true
		// The sidecars index segment-local rows, which the global
		// renumbering does not touch, so both export byte-identical.
		annName := ""
		if seg.Ann != nil {
			annName = fmt.Sprintf("ann-%d-0-%d.ivf", gen, i)
			if err := writeFileAtomic(dir, annName, seg.Ann.Encode(), faultinject.OS{}); err != nil {
				return fmt.Errorf("shard: export quantizer %s: %w", annName, err)
			}
			keep[annName] = true
		}
		quantName := ""
		if seg.Quant != nil {
			quantName = fmt.Sprintf("quant-%d-0-%d.qnt", gen, i)
			if err := writeFileAtomic(dir, quantName, seg.Quant.Encode(), faultinject.OS{}); err != nil {
				return fmt.Errorf("shard: export quantized matrix %s: %w", quantName, err)
			}
			keep[quantName] = true
		}
		man.Segments[0] = append(man.Segments[0], ManifestSegment{
			File:      name,
			Docs:      seg.Len(),
			Globals:   locals,
			Compacted: seg.Compacted,
			Base:      base != nil && seg.Ix == base,
			ANNFile:   annName,
			QuantFile: quantName,
		})
	}

	idsData, err := json.Marshal(localIDs)
	if err != nil {
		return fmt.Errorf("shard: export ids: %w", err)
	}
	if err := writeFileAtomic(dir, man.IDsFile, idsData, faultinject.OS{}); err != nil {
		return fmt.Errorf("shard: export ids: %w", err)
	}
	manData, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: export manifest: %w", err)
	}
	if err := writeFileAtomic(dir, ManifestName, manData, faultinject.OS{}); err != nil {
		return fmt.Errorf("shard: export manifest: %w", err)
	}
	retireStaleGenerations(dir, keep)
	return nil
}

// retireStaleGenerations removes generation-stamped data files not in
// keep. Best-effort: leftovers are ignored by Open and removed by the
// next save's pass.
func retireStaleGenerations(dir string, keep map[string]bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		var g, a, b int
		isSeg := func() bool { n, _ := fmt.Sscanf(name, "seg-%d-%d-%d.idx", &g, &a, &b); return n == 3 }
		isAnn := func() bool { n, _ := fmt.Sscanf(name, "ann-%d-%d-%d.ivf", &g, &a, &b); return n == 3 }
		isQuant := func() bool { n, _ := fmt.Sscanf(name, "quant-%d-%d-%d.qnt", &g, &a, &b); return n == 3 }
		isIDs := func() bool { n, _ := fmt.Sscanf(name, "ids-%d.json", &g); return n == 1 }
		if (isSeg() || isAnn() || isQuant() || isIDs()) && !keep[name] {
			os.Remove(filepath.Join(dir, name))
		}
	}
}
