// Package ivf implements the inverted-file (IVF) approximate-nearest-
// neighbor tier over the projected LSI space: a k-means coarse quantizer
// whose cells partition the document vectors, plus a cell-probe search
// that scores only the documents of the nprobe cells nearest the query.
//
// The paper's Theorem 2 is what makes this near-lossless here: LSI
// projection collapses a separable corpus onto near-orthogonal topic
// directions, so the projected space is naturally clustered and a coarse
// quantizer recovers the topic structure almost exactly. Probing a
// handful of cells then touches almost every true neighbor while
// skipping the O(m·k) exhaustive scan.
//
// Everything rides on the invariants of the existing hot path:
//
//   - Scoring uses the scan.Float scorer (mat.DotNorm32) over the same
//     stored document rows and precomputed norms as the exhaustive scan,
//     so a document scored by the probe path gets the bitwise-identical
//     score it would get from lsi.SearchSparse.
//   - Selection goes through internal/topk's bounded heap under the
//     strict (score desc, doc asc) total order, which is offer-order-
//     insensitive. Probing all cells therefore returns bitwise-identical
//     results to the exhaustive scan — the escape hatch is exact by
//     construction, not by a separate code path.
//   - Training is deterministic for a fixed seed and any worker count:
//     k-means++ seeding consumes a fixed rand stream, Lloyd assignment
//     writes disjoint per-document slots, and the centroid update
//     accumulates each cell's members in ascending document order inside
//     a single chunk, so no floating-point reassociation depends on
//     scheduling.
//
// An Index stores only the quantizer (centroids) and the cell postings
// (a permutation of document rows in flat SoA layout); the document
// vectors themselves stay in the owning lsi.Index, so the ANN tier adds
// O(nlist·k + m) memory, not a second copy of the corpus.
package ivf

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/blob"
	"repro/internal/mat"
	"repro/internal/par"
)

// DefaultIters is the Lloyd iteration budget Train uses when
// TrainOptions.Iters is zero. Spherical k-means on LSI-projected corpora
// converges in a handful of iterations because the clusters are the
// paper's near-orthogonal topic directions; past ~10 iterations the
// assignment is almost always a fixed point already.
const DefaultIters = 10

// TrainOptions configures Train.
type TrainOptions struct {
	// NList is the number of cells (coarse centroids). It is clamped to
	// the number of documents. Typical values are O(√m); the serving
	// layer picks a default from the corpus size.
	NList int
	// Seed drives k-means++ seeding. Training the same vectors with the
	// same seed is deterministic for every worker count.
	Seed int64
	// Iters is the Lloyd iteration budget (0 = DefaultIters). Training
	// stops early when an iteration changes no assignment.
	Iters int
}

// Index is a trained IVF coarse quantizer with its inverted cell lists.
// It is immutable after Train/Decode and safe for concurrent searches.
type Index struct {
	dim   int   // latent dimension of the vectors it was trained on
	nlist int   // number of cells
	seed  int64 // training seed (recorded for stats and re-training)

	centroids *mat.Dense // nlist×dim cell centroids
	cnorms    []float64  // per-centroid Euclidean norms

	// Inverted lists in flat SoA layout: docs is a permutation of
	// [0, ndocs) grouped by cell, ascending within each cell, and
	// cellStart[c]:cellStart[c+1] bounds cell c's slice of it.
	cellStart []int
	docs      []int32

	// mapped is the sidecar file the centroids are a view of; nil for a
	// trained index. The Index holds it (DESIGN.md §2).
	mapped *blob.Mapping
}

// MappedBytes is the size of the sidecar file the centroids are a view
// of, or 0.
func (x *Index) MappedBytes() int64 { return int64(x.mapped.Len()) }

// NList returns the number of cells.
func (x *Index) NList() int { return x.nlist }

// Dim returns the latent dimension the index was trained on.
func (x *Index) Dim() int { return x.dim }

// NumDocs returns the number of documents covered by the cell lists.
func (x *Index) NumDocs() int { return len(x.docs) }

// Train is Train32 over mat.Narrow(vecs).
func Train(vecs *mat.Dense, norms []float64, opts TrainOptions) (*Index, error) {
	return Train32(mat.Narrow(vecs), norms, opts)
}

// Train32 builds an IVF index over the rows of vecs (one stored document
// vector per row, with norms the precomputed Euclidean norms, as produced
// by lsi.Index.Docs and Norms). Clustering is spherical k-means under the
// cosine geometry the search path scores with: k-means++ seeding on the
// 1−cos(x,c) distance, then Lloyd iterations that assign each document
// to its highest-cosine centroid (ties to the lower cell) and recenter
// each cell on the mean direction of its members.
func Train32(vecs *mat.Dense32, norms []float64, opts TrainOptions) (*Index, error) {
	x, _, err := train(vecs, norms, opts)
	return x, err
}

// trainStats counts what training did: the Lloyd passes run after seeding
// and the document–centroid scores those passes computed.
type trainStats struct {
	passes int
	dots   int
}

// train is Train32. The Lloyd passes are exact but do not rescan: the
// bounds of bounds.go let each pass score only the cells a document could
// still move to, and the first assignment falls out of seeding.
func train(vecs *mat.Dense32, norms []float64, opts TrainOptions) (*Index, trainStats, error) {
	var st trainStats
	m, dim := vecs.Dims()
	if m < 1 || dim < 1 {
		return nil, st, fmt.Errorf("ivf: train on an empty %dx%d matrix", m, dim)
	}
	if len(norms) != m {
		return nil, st, fmt.Errorf("ivf: %d norms for %d documents", len(norms), m)
	}
	if opts.NList < 1 {
		return nil, st, fmt.Errorf("ivf: nlist %d, want >= 1", opts.NList)
	}
	nlist := opts.NList
	if nlist > m {
		nlist = m
	}
	iters := opts.Iters
	if iters <= 0 {
		iters = DefaultIters
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	b := newBounds(vecs, norms, nlist)
	cent := seedCentroids(vecs, norms, nlist, rng, b)
	cnorms := make([]float64, nlist)
	for c := 0; c < nlist; c++ {
		cnorms[c] = mat.Norm(cent.Row(c))
	}
	prev, prevNorms := mat.NewDense(nlist, dim), make([]float64, nlist)
	for it := 0; it < iters; it++ {
		starts, docs := buildPostings(b.own, nlist)
		copy(prev.RawData(), cent.RawData())
		copy(prevNorms, cnorms)
		recenter(vecs, norms, cent, starts, docs)
		for c := 0; c < nlist; c++ {
			cnorms[c] = mat.Norm(cent.Row(c))
		}
		changed, dots := b.pass(vecs, norms, cent, cnorms, prev, prevNorms)
		st.passes++
		st.dots += dots
		if changed == 0 {
			break
		}
	}
	starts, docs := buildPostings(b.own, nlist)
	return &Index{
		dim:       dim,
		nlist:     nlist,
		seed:      opts.Seed,
		centroids: cent,
		cnorms:    cnorms,
		cellStart: starts,
		docs:      docs,
	}, st, nil
}

// seedCentroids runs k-means++ over the cosine distance 1−cos(x,c): the
// first seed is uniform, each later seed is drawn with probability
// proportional to the document's distance to its nearest chosen seed.
// The rand stream and the serial prefix-sum walk make the choice a pure
// function of (vecs, rng state); the parallel distance refresh writes
// disjoint per-document slots, so worker count never changes the seeds.
//
// Every (document, seed) score is offered to b as it is computed, in
// ascending seed order, so when seeding ends b holds the first Lloyd
// assignment (what a full scan of the seeds would pick) and its bounds.
func seedCentroids(vecs *mat.Dense32, norms []float64, nlist int, rng *rand.Rand, b *bounds) *mat.Dense {
	m, dim := vecs.Dims()
	cent := mat.NewDense(nlist, dim)
	dist := make([]float64, m)
	for j := range dist {
		dist[j] = math.Inf(1)
	}
	grain := par.GrainFor(2*dim + 1)
	lower := func(c int) {
		crow := cent.Row(c)
		cn := mat.Norm(crow)
		par.For(m, grain, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				s := mat.DotNorm32(crow, vecs.Row(j), cn, norms[j])
				if d := 1 - s; d < dist[j] {
					dist[j] = d
				}
				b.offer(j, int32(c), s)
			}
		})
	}
	mat.Convert(cent.Row(0), vecs.Row(rng.Intn(m)))
	lower(0)
	for c := 1; c < nlist; c++ {
		var total float64
		for _, d := range dist {
			total += d
		}
		pick := -1
		if total > 0 {
			r := rng.Float64() * total
			var cum float64
			for j, d := range dist {
				cum += d
				if cum > r {
					pick = j
					break
				}
			}
			if pick < 0 {
				// Rounding pushed r past the final cumulative sum; take the
				// last document that still has any mass.
				for j := m - 1; j >= 0; j-- {
					if dist[j] > 0 {
						pick = j
						break
					}
				}
			}
		}
		if pick < 0 {
			// Every document coincides with a chosen seed (duplicate-heavy
			// corpus); any pick yields an identical centroid.
			pick = rng.Intn(m)
		}
		mat.Convert(cent.Row(c), vecs.Row(pick))
		lower(c)
	}
	b.settle(0, m)
	return cent
}

// recenter replaces every non-empty cell's centroid with the mean
// direction of its members (the spherical k-means update: the sum of the
// members' unit vectors — cosine scoring ignores the scale). Empty cells
// keep their previous centroid. Each cell is owned by exactly one chunk
// and accumulates its members in ascending document order, so the
// floating-point sum never depends on scheduling.
func recenter(vecs *mat.Dense32, norms []float64, cent *mat.Dense, starts []int, docs []int32) {
	nlist, dim := cent.Dims()
	avgWork := 2 * dim * (len(docs)/nlist + 1)
	par.For(nlist, par.GrainFor(avgWork), func(lo, hi int) {
		for c := lo; c < hi; c++ {
			members := docs[starts[c]:starts[c+1]]
			if len(members) == 0 {
				continue
			}
			crow := cent.Row(c)
			for d := range crow {
				crow[d] = 0
			}
			for _, j := range members {
				nj := norms[j]
				if nj == 0 {
					continue
				}
				w := 1 / nj
				row := vecs.Row(int(j))
				for d, v := range row {
					crow[d] += w * float64(v)
				}
			}
		}
	})
}

// buildPostings counting-sorts the assignment into the flat SoA layout:
// one permutation slice grouped by cell, ascending document order within
// each cell (the walk is in ascending j and the sort is stable).
func buildPostings(assign []int32, nlist int) (starts []int, docs []int32) {
	starts = make([]int, nlist+1)
	for _, c := range assign {
		starts[c+1]++
	}
	for c := 0; c < nlist; c++ {
		starts[c+1] += starts[c]
	}
	docs = make([]int32, len(assign))
	next := append([]int(nil), starts[:nlist]...)
	for j, c := range assign {
		docs[next[c]] = int32(j)
		next[c]++
	}
	return starts, docs
}
