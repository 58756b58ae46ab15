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
}

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
	m, dim := vecs.Dims()
	if m < 1 || dim < 1 {
		return nil, fmt.Errorf("ivf: train on an empty %dx%d matrix", m, dim)
	}
	if len(norms) != m {
		return nil, fmt.Errorf("ivf: %d norms for %d documents", len(norms), m)
	}
	if opts.NList < 1 {
		return nil, fmt.Errorf("ivf: nlist %d, want >= 1", opts.NList)
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
	cent := seedCentroids(vecs, norms, nlist, rng)
	cnorms := make([]float64, nlist)
	for c := 0; c < nlist; c++ {
		cnorms[c] = mat.Norm(cent.Row(c))
	}

	assign := make([]int32, m)
	for j := range assign {
		assign[j] = -1
	}
	assignAll(vecs, norms, cent, cnorms, assign)
	for it := 0; it < iters; it++ {
		starts, docs := buildPostings(assign, nlist)
		recenter(vecs, norms, cent, starts, docs)
		for c := 0; c < nlist; c++ {
			cnorms[c] = mat.Norm(cent.Row(c))
		}
		if assignAll(vecs, norms, cent, cnorms, assign) == 0 {
			break
		}
	}
	starts, docs := buildPostings(assign, nlist)
	return &Index{
		dim:       dim,
		nlist:     nlist,
		seed:      opts.Seed,
		centroids: cent,
		cnorms:    cnorms,
		cellStart: starts,
		docs:      docs,
	}, nil
}

// seedCentroids runs k-means++ over the cosine distance 1−cos(x,c): the
// first seed is uniform, each later seed is drawn with probability
// proportional to the document's distance to its nearest chosen seed.
// The rand stream and the serial prefix-sum walk make the choice a pure
// function of (vecs, rng state); the parallel distance refresh writes
// disjoint per-document slots, so worker count never changes the seeds.
func seedCentroids(vecs *mat.Dense32, norms []float64, nlist int, rng *rand.Rand) *mat.Dense {
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
				if d := 1 - mat.DotNorm32(crow, vecs.Row(j), cn, norms[j]); d < dist[j] {
					dist[j] = d
				}
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
	return cent
}

// assignAll moves every document to its highest-cosine centroid (ties to
// the lower cell) and returns how many assignments changed. Writes are
// disjoint per document, so the parallel fan-out is deterministic for
// any worker count; the change counts reduce over par.MapChunks in chunk
// order, though the sum is order-free anyway.
func assignAll(vecs *mat.Dense32, norms []float64, cent *mat.Dense, cnorms []float64, assign []int32) int {
	m, _ := vecs.Dims()
	nlist := cent.Rows()
	grain := par.GrainFor(2*cent.Rows()*cent.Cols() + 1)
	changed := par.MapChunks(m, grain, func(lo, hi int) int {
		n := 0
		for j := lo; j < hi; j++ {
			row := vecs.Row(j)
			nj := norms[j]
			best := int32(0)
			bestScore := math.Inf(-1)
			for c := 0; c < nlist; c++ {
				if s := mat.DotNorm32(cent.Row(c), row, cnorms[c], nj); s > bestScore {
					bestScore = s
					best = int32(c)
				}
			}
			if assign[j] != best {
				assign[j] = best
				n++
			}
		}
		return n
	})
	total := 0
	for _, n := range changed {
		total += n
	}
	return total
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
