package shard

import (
	"fmt"
	"log"
	"time"

	"repro/internal/segment"
)

// The background compactor. Sealed fold-in segments represent their
// documents only within the basis they were folded against; the
// compactor rebuilds them from their retained raw documents with a fresh
// decomposition (internal/segment.Compact, which is lsi.Build) and swaps
// the replacement in atomically. Compacted tiers keep their raw
// documents and are re-absorbed by later passes under a size-tiered
// policy, so a shard's segment count stays O(log docs) under unbounded
// ingest. All heavy work runs outside every lock: the shard mutex is
// held only for the pointer swap, and searches in flight keep serving
// the old segments they snapshotted.

// compactable reports whether a stable segment is waiting for the
// compactor: it still carries raw documents and was not produced by a
// full decomposition.
func compactable(s *segment.Segment) bool {
	return !s.Compacted && s.Raw != nil
}

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
// sealed segments awaiting compaction, the sealed segments — plus any
// older compacted tier no larger than the material being merged — are
// rebuilt into one compacted segment, which replaces them atomically.
// It returns the number of segments merged away (0 when there was
// nothing to do). Safe to call concurrently with ingest and searches;
// concurrent Compact calls serialize. A pass that fails is counted (see
// CompactionFailures) and leaves the segments it could not rebuild
// published and serving.
func (x *Index) Compact() (rebuilt int, err error) {
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
		// Snapshot the compactable set. Only this (serialized) path ever
		// removes stable segments, so the set cannot shrink under us;
		// ingest can only append more.
		st := sh.state.Load()
		sealedDocs := 0
		for _, seg := range st.stable {
			if compactable(seg) {
				sealedDocs += seg.Len()
			}
		}
		if sealedDocs == 0 {
			continue
		}
		// Size-tiered merge: every sealed segment must be rebuilt, and
		// older compacted tiers that kept their raw documents are
		// absorbed while no larger than the material merged so far
		// (walking newest to oldest). Each surviving tier is therefore
		// bigger than everything younger combined, so a shard holds
		// O(log docs) segments no matter how long ingest runs — without
		// re-decomposing the whole shard on every pass. Merging any
		// in-order subsequence of the stable list keeps globals
		// ascending: per-shard segments hold disjoint, chronologically
		// increasing global ranges.
		var mergeable []*segment.Segment // raw-bearing stable segments, stable order
		for _, seg := range st.stable {
			if seg.Raw != nil && seg.Raw.Len() == seg.Len() {
				mergeable = append(mergeable, seg)
			}
		}
		start := len(mergeable)
		size := 0
		for start > 0 {
			prev := mergeable[start-1]
			if !compactable(prev) && prev.Len() > size {
				break
			}
			start--
			size += prev.Len()
		}
		pending := mergeable[start:]
		// Deterministic rebuild seed: a function of the configured seed,
		// the shard, and the segment contents' position — compacting the
		// same documents yields the same segment, run after run.
		seed := x.cfg.Seed + int64(s)*1000003 + int64(pending[0].Global[0])*8191 + 1
		comp, err := segment.Compact(pending, x.numTerms, segment.CompactOptions{
			K:       x.cfg.Rank,
			Seed:    seed,
			KeepRaw: true,
		})
		if err != nil {
			return rebuilt, fmt.Errorf("shard %d: %w", s, err)
		}
		// Re-derive the segment's sidecars — coarse quantizer and int8
		// shadow — against the fresh decomposition, still outside every
		// lock: both publish in the same swap as the re-SVD, so the epoch
		// bump below covers all of it and cached pre-compaction rankings
		// retire exactly once.
		if comp, err = comp.WithTiers(x.tiers(s), nil, nil); err != nil {
			return rebuilt, fmt.Errorf("shard %d: %w", s, err)
		}

		sh.mu.Lock()
		cur := sh.state.Load()
		next := &shardState{epoch: cur.epoch + 1, live: cur.live}
		replaced := false
		inPending := func(seg *segment.Segment) bool {
			for _, p := range pending {
				if seg == p {
					return true
				}
			}
			return false
		}
		for _, seg := range cur.stable {
			if inPending(seg) {
				if !replaced {
					// The merged replacement takes the slot of the first
					// input; later inputs just disappear.
					next.stable = append(next.stable, comp)
					replaced = true
				}
				continue
			}
			next.stable = append(next.stable, seg)
		}
		sh.state.Store(next)
		sh.mu.Unlock()
		// Publish-then-bump, same protocol as ingest: the compacted
		// segment's (re-decomposed, numerically different) scores are
		// visible before the epoch moves, so epoch-keyed cache entries
		// can never mix pre- and post-compaction rankings.
		x.globalEpoch.Add(1)
		x.lastMutation.Store(time.Now().UnixNano())
		rebuilt += len(pending)
		x.compactions.Add(1)
	}
	return rebuilt, nil
}
