// Package graphmodel implements the alternative, graph-theoretic corpus
// model sketched in Section 6 of the paper: documents are nodes of a
// weighted undirected graph whose edge weights capture conceptual proximity
// (e.g. derived from AAᵀ); a topic is implicitly a subgraph with high
// conductance. Theorem 6 states that if the corpus consists of k disjoint
// high-conductance subgraphs joined by edges of total weight per vertex at
// most an ε fraction, rank-k spectral analysis discovers the subgraphs.
//
// The package provides the weighted graph type, the paper's conductance
// functional, planted-partition generators, and the spectral discovery
// procedure (top-k eigenvectors of the normalized adjacency, followed by
// k-means on the embedding).
package graphmodel

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mat"
	"repro/internal/svd"
)

// Graph is a weighted undirected graph on n vertices with a dense,
// symmetric weight matrix.
type Graph struct {
	n int
	w *mat.Dense
}

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph {
	if n < 1 {
		panic(fmt.Sprintf("graphmodel: graph needs at least one vertex, got %d", n))
	}
	return &Graph{n: n, w: mat.NewDense(n, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// SetWeight sets the symmetric edge weight between u and v. Self-loops are
// rejected. It panics on out-of-range vertices or negative weight.
func (g *Graph) SetWeight(u, v int, w float64) {
	if u == v {
		panic("graphmodel: self-loops are not allowed")
	}
	if w < 0 {
		panic(fmt.Sprintf("graphmodel: negative edge weight %v", w))
	}
	g.w.Set(u, v, w)
	g.w.Set(v, u, w)
}

// AddWeight adds w to the symmetric edge weight between u and v.
func (g *Graph) AddWeight(u, v int, w float64) {
	g.SetWeight(u, v, g.Weight(u, v)+w)
}

// Weight returns the edge weight between u and v.
func (g *Graph) Weight(u, v int) float64 { return g.w.At(u, v) }

// Degree returns the weighted degree (row sum) of vertex u.
func (g *Graph) Degree(u int) float64 {
	return mat.SumVec(g.w.Row(u))
}

// CutConductance evaluates the paper's conductance functional for the cut
// (S, S̄):  Σ_{i∈S, j∉S} w(i,j) / min(|S|, |S̄|). It returns +Inf for the
// trivial cuts (S empty or full).
func (g *Graph) CutConductance(inS []bool) float64 {
	if len(inS) != g.n {
		panic(fmt.Sprintf("graphmodel: cut vector length %d, want %d", len(inS), g.n))
	}
	sz := 0
	for _, b := range inS {
		if b {
			sz++
		}
	}
	if sz == 0 || sz == g.n {
		return math.Inf(1)
	}
	var cross float64
	for i := 0; i < g.n; i++ {
		if !inS[i] {
			continue
		}
		row := g.w.Row(i)
		for j := 0; j < g.n; j++ {
			if !inS[j] {
				cross += row[j]
			}
		}
	}
	return cross / float64(min(sz, g.n-sz))
}

// SweepConductance estimates the graph's conductance by a Fiedler sweep:
// it sorts vertices by the second eigenvector of the normalized adjacency
// and returns the best prefix cut and its conductance. This is the standard
// Cheeger-style certificate that a planted block is internally
// well-connected ("high conductance" in Theorem 6's hypothesis).
func (g *Graph) SweepConductance() (float64, []bool, error) {
	if g.n < 2 {
		return math.Inf(1), nil, nil
	}
	emb, _, err := SpectralEmbedding(g, 2)
	if err != nil {
		return 0, nil, err
	}
	order := make([]int, g.n)
	for i := range order {
		order[i] = i
	}
	// Sort by the second eigenvector's components.
	f := emb.Col(1)
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && f[order[j]] < f[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	best := math.Inf(1)
	var bestCut []bool
	inS := make([]bool, g.n)
	for p := 0; p < g.n-1; p++ {
		inS[order[p]] = true
		if c := g.CutConductance(inS); c < best {
			best = c
			bestCut = append([]bool(nil), inS...)
		}
	}
	return best, bestCut, nil
}

// SpectralEmbedding returns the n×k matrix whose rows embed vertices by the
// top-k eigenvectors of the degree-normalized adjacency D^{-1/2}·W·D^{-1/2}
// (same spectrum as the row-normalized matrix the paper's Theorem 6 proof
// normalizes to), along with the corresponding eigenvalues (descending).
// Vertices with zero degree embed at the origin.
func SpectralEmbedding(g *Graph, k int) (*mat.Dense, []float64, error) {
	if k < 1 || k > g.n {
		return nil, nil, fmt.Errorf("graphmodel: embedding dimension k=%d out of [1,%d]", k, g.n)
	}
	dinv := make([]float64, g.n)
	for i := 0; i < g.n; i++ {
		d := g.Degree(i)
		if d > 0 {
			dinv[i] = 1 / math.Sqrt(d)
		}
	}
	norm := mat.NewDense(g.n, g.n)
	for i := 0; i < g.n; i++ {
		wrow := g.w.Row(i)
		nrow := norm.Row(i)
		for j := 0; j < g.n; j++ {
			nrow[j] = dinv[i] * wrow[j] * dinv[j]
		}
	}
	vals, vecs, err := svd.SymEigen(norm)
	if err != nil {
		return nil, nil, err
	}
	return vecs.SliceCols(0, k), vals[:k], nil
}

// DiscoverTopics runs the full Theorem 6 procedure: spectral embedding into
// k dimensions, row normalization, and k-means clustering. It returns a
// label in [0, k) per vertex.
func DiscoverTopics(g *Graph, k int, rng *rand.Rand) ([]int, error) {
	emb, _, err := SpectralEmbedding(g, k)
	if err != nil {
		return nil, err
	}
	// Row-normalize so clustering compares directions, not magnitudes.
	for i := 0; i < g.n; i++ {
		mat.Normalize(emb.Row(i))
	}
	labels, _ := KMeans(emb, k, 100, rng)
	return labels, nil
}
