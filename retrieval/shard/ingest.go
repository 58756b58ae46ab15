package shard

import (
	"fmt"
	"time"

	"repro/internal/lsi"
	"repro/internal/segment"
)

// Ingest: Add and AddBatch fold documents into the live segment of their
// shard through the LSI fold-in path. Calls serialize on ingestMu —
// global document numbers are allocated and published under it, so
// numbers are dense, arrival-ordered, and ascending within every
// segment — while searches stay wait-free: each mutation builds new
// immutable segments and publishes them by pointer swap.
//
// Routing matches the build-time layout: global document g lives on
// shard g mod N. A batch therefore fans its documents out across every
// shard, keeping shards balanced no matter the write pattern.

// Doc is one document to ingest: its external identifier and its sparse
// term-space vector (term IDs strictly ascending, weights parallel).
// The index keeps only the document's folded latent row, not the slices.
type Doc struct {
	ID      string
	Terms   []int
	Weights []float64
}

// Add folds one document into the index and returns its global document
// number. Safe to call concurrently with searches, other Adds, and
// compaction.
func (x *Index) Add(d Doc) (int, error) {
	return x.AddBatch([]Doc{d})
}

// AddBatch folds a batch of documents into the index and returns the
// global number of the first; the batch occupies the contiguous range
// [first, first+len(docs)). Every document is validated before anything
// is published, so an invalid batch leaves the index unchanged.
func (x *Index) AddBatch(docs []Doc) (int, error) {
	if x.frozen {
		return 0, ErrFrozen
	}
	if x.closed.Load() {
		return 0, ErrClosed
	}
	if len(docs) == 0 {
		return 0, fmt.Errorf("shard: empty batch")
	}
	for i, d := range docs {
		if len(d.Terms) != len(d.Weights) {
			return 0, fmt.Errorf("shard: document %d has %d terms but %d weights", i, len(d.Terms), len(d.Weights))
		}
		for _, t := range d.Terms {
			if t < 0 || t >= x.numTerms {
				return 0, fmt.Errorf("shard: document %d term %d out of range [0,%d)", i, t, x.numTerms)
			}
		}
	}

	x.ingestMu.Lock()
	defer x.ingestMu.Unlock()
	if x.closed.Load() {
		return 0, ErrClosed
	}
	cur := x.ids.Load()
	first := cur.Len()

	// Group the batch by destination shard; globals within each group
	// ascend because the batch range is contiguous.
	type group struct {
		terms   [][]int
		weights [][]float64
		globals []int
	}
	groups := make(map[int]*group, x.cfg.Shards)
	for i, d := range docs {
		g := first + i
		s := g % x.cfg.Shards
		gr := groups[s]
		if gr == nil {
			gr = &group{}
			groups[s] = gr
		}
		gr.terms = append(gr.terms, d.Terms)
		gr.weights = append(gr.weights, d.Weights)
		gr.globals = append(gr.globals, g)
	}

	// Fold every group before publishing anything: a fold error (which
	// validation above should have made impossible) must not publish a
	// half-ingested batch.
	type publish struct {
		sh   *shardH
		live *segment.Segment
		base *lsi.Index // non-nil when this ingest created the shard's basis
	}
	var pubs []publish
	for s, gr := range groups {
		sh := x.shards[s]
		st := sh.state.Load()
		live := st.live
		if live == nil {
			if sh.base == nil {
				// First documents ever routed to this shard: there is no
				// basis to fold into, so decompose the group directly.
				// That build IS the shard's first (compacted) segment and
				// its index becomes the fold-in basis for later arrivals.
				ix, err := buildFromSparseDocs(x.numTerms, gr.terms, gr.weights, x.cfg.Rank,
					lsi.Options{Engine: x.cfg.Engine, Seed: x.cfg.Seed + int64(s)})
				if err != nil {
					return 0, fmt.Errorf("shard %d: %w", s, err)
				}
				seg, err := segment.New(ix, gr.globals, nil, true)
				if err != nil {
					return 0, fmt.Errorf("shard %d: %w", s, err)
				}
				pubs = append(pubs, publish{sh: sh, live: seg, base: ix})
				continue
			}
			empty, err := segment.New(sh.base.EmptyLike(), nil, nil, false)
			if err != nil {
				return 0, fmt.Errorf("shard %d: %w", s, err)
			}
			live = empty
		}
		next, err := live.Extend(gr.terms, gr.weights, gr.globals)
		if err != nil {
			return 0, fmt.Errorf("shard %d: %w", s, err)
		}
		// No serving path reads a fold-in's term-space documents, and the
		// compactor settles its latent rows: publish it without them.
		next.Raw = nil
		pubs = append(pubs, publish{sh: sh, live: next})
	}

	// Publish the external IDs first (append-only: readers of older
	// snapshots never index past their own length), then each shard's
	// new state. Shard states publish one at a time (in no particular
	// order), so a searcher racing this publish may see any subset of
	// the batch's shard groups — but never a document whose external ID
	// is unpublished, and never a torn shard state.
	batch := make([]string, len(docs))
	for i, d := range docs {
		batch[i] = d.ID
		if d.ID == "" {
			batch[i] = fmt.Sprintf("doc-%d", first+i)
		}
	}
	ids, err := cur.Append(batch...)
	if err != nil {
		return 0, fmt.Errorf("shard: %w", err)
	}
	x.ids.Store(&ids)

	sealed := false
	for _, p := range pubs {
		p.sh.mu.Lock()
		st := p.sh.state.Load()
		next := &shardState{stable: st.stable, live: p.live}
		if p.base != nil {
			// The freshly decomposed first segment is stable, not live.
			p.sh.base = p.base
			next.stable = append(append([]*segment.Segment(nil), st.stable...), p.live)
			next.live = nil
		} else if p.live.Len() >= x.cfg.SealEvery {
			// Seal: the live segment moves read-only into the stable
			// list and waits for the compactor; the next Add opens a
			// fresh live segment.
			next.stable = append(append([]*segment.Segment(nil), st.stable...), p.live)
			next.live = nil
			sealed = true
		}
		p.sh.state.Store(next)
		p.sh.mu.Unlock()
	}
	// Bump the global epoch only after every shard state is published:
	// a reader that observes the new epoch is then guaranteed to see the
	// whole batch, which is what lets the query cache key results by
	// epoch without ever serving pre-Add state (see Index.Epoch).
	x.globalEpoch.Add(1)
	x.docsIngested.Add(int64(len(docs)))
	x.lastMutation.Store(time.Now().UnixNano())
	if sealed {
		x.wakeCompactor()
	}
	return first, nil
}

// buildFromSparseDocs assembles a term-document matrix from sparse
// columns and decomposes it.
func buildFromSparseDocs(numTerms int, terms [][]int, weights [][]float64, rank int, opts lsi.Options) (*lsi.Index, error) {
	raw := &segment.Raw{Terms: terms, Weights: weights}
	return lsi.Build(raw.Matrix(numTerms), rank, opts)
}
