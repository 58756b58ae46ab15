package shard

import (
	"fmt"
	"log"
	"slices"
	"time"

	"repro/internal/segment"
)

// The background compactor. Sealed fold-in segments represent their
// documents in the shard's basis — the corpus-level Uₖ the paper folds
// into. The compactor settles them there: it concatenates them, with
// older tiers in the same basis, into one compacted tier
// (internal/segment.Merge, no SVD), so every document keeps the score it
// had sealed. Settled tiers, sharing the shard's basis, are re-absorbed
// by later passes under a size-tiered policy, so a shard's segment count
// stays O(log docs) under unbounded ingest. All heavy work runs outside
// every lock: the shard mutex is held only for the pointer swap, and
// searches in flight keep serving the old segments they snapshotted.

// compactable reports whether a stable segment is waiting for the
// compactor: a sealed fold-in, or one Open reloaded.
func compactable(s *segment.Segment) bool { return !s.Compacted }

// compactTick bounds how long a sealed segment waits when a wake signal
// is missed (the channel is best-effort, capacity 1).
const compactTick = 2 * time.Second

// startCompactor launches the background loop when AutoCompact is on;
// otherwise it arranges for Close to return immediately.
func (x *Index) startCompactor() {
	if !x.cfg.AutoCompact {
		close(x.done)
		return
	}
	go func() {
		defer close(x.done)
		ticker := time.NewTicker(compactTick)
		defer ticker.Stop()
		for {
			select {
			case <-x.stop:
				return
			case <-x.wake:
			case <-ticker.C:
			}
			if _, err := x.Compact(); err != nil {
				// The sealed segments keep serving as they are and the
				// next pass retries; Compact has counted the failure.
				log.Printf("shard: compaction failed: %v", err)
			}
		}
	}()
}

// wakeCompactor nudges the background loop; a full channel means a wake
// is already pending.
func (x *Index) wakeCompactor() {
	if !x.cfg.AutoCompact {
		return
	}
	select {
	case x.wake <- struct{}{}:
	default:
	}
}

// Compact runs one compaction pass synchronously: for every shard with
// sealed segments, the sealed segments — plus any older settled tier no
// larger than the material being merged — are concatenated in the
// shard's basis into one compacted segment, which replaces them
// atomically. It returns the number of segments merged away (0 when
// there was nothing to do). Safe to call concurrently with ingest and
// searches; concurrent Compact calls serialize. A pass that fails is
// counted (see Stats.CompactionFailures) and leaves the segments it could not
// merge published and serving.
func (x *Index) Compact() (merged int, err error) {
	x.compactMu.Lock()
	defer x.compactMu.Unlock()
	x.compacting.Add(1)
	defer x.compacting.Add(-1)
	defer func() {
		if err != nil {
			x.compactFailures.Add(1)
			msg := err.Error()
			x.lastCompactErr.Store(&msg)
		}
	}()

	for s, sh := range x.shards {
		// Snapshot the stable list. Only this (serialized) path removes
		// stable segments; ingest can only append more.
		pending := sizeTiered(sh.state.Load().stable)
		if len(pending) == 0 {
			continue
		}
		comp, err := segment.Merge(pending)
		if err != nil {
			return merged, fmt.Errorf("shard %d: %w", s, err)
		}
		// Derive the tier's sidecars — coarse quantizer and int8 shadow —
		// still outside every lock: they publish in the same swap as the
		// merge, so the epoch bump below covers all of it and cached
		// pre-compaction rankings retire exactly once.
		if comp, err = comp.WithTiers(x.tiers(s), nil, nil); err != nil {
			return merged, fmt.Errorf("shard %d: %w", s, err)
		}

		sh.mu.Lock()
		cur := sh.state.Load()
		next := &shardState{live: cur.live}
		for _, seg := range cur.stable {
			switch {
			case !slices.Contains(pending, seg):
				next.stable = append(next.stable, seg)
			case seg == pending[0]:
				// The merged replacement takes the slot of the first
				// input; later inputs just disappear.
				next.stable = append(next.stable, comp)
			}
		}
		sh.state.Store(next)
		sh.mu.Unlock()
		// Publish-then-bump, same protocol as ingest: the new tier is
		// visible before the epoch moves, so epoch-keyed cache entries
		// can never mix pre- and post-compaction rankings (a settle keeps
		// every score, but sidecars change what a tiered search returns).
		x.globalEpoch.Add(1)
		x.lastMutation.Store(time.Now().UnixNano())
		merged += len(pending)
		x.compactions.Add(1)
	}
	return merged, nil
}

// sizeTiered picks the stable segments (in stable order) that a pass
// merges: every sealed one, and the older settled tiers absorbed while no
// larger than the material merged so far (walking newest to oldest).
// Each surviving tier is therefore bigger than everything younger
// combined, so a shard holds O(log docs) tiers however long ingest runs.
// The class is every segment after the base, stable[0], which no pass
// merges; all of them share its basis, and the sealed ones are the
// newest, so the result is a suffix of the class; nil when none is
// sealed. Merging a suffix of the stable list keeps globals ascending:
// per-shard segments hold disjoint, chronologically increasing global
// ranges.
func sizeTiered(stable []*segment.Segment) []*segment.Segment {
	if len(stable) == 0 {
		return nil
	}
	class := stable[1:]
	if !slices.ContainsFunc(class, compactable) {
		return nil
	}
	start, size := len(class), 0
	for start > 0 {
		prev := class[start-1]
		if !compactable(prev) && prev.Len() > size {
			break
		}
		start--
		size += prev.Len()
	}
	return class[start:]
}
